(** The live wire protocol: length-prefixed, CRC-checked frames.

    Layout (all integers big-endian):

    {v
      +------+------+----------------+-------+
      | 0xFA | 0xD0 | len (4 bytes)  | body  |  crc32(body) (4 bytes)
      +------+------+----------------+-------+
    v}

    The second magic byte is the codec version, and [0xD0] (v3) is the
    only one: any other second byte, including the retired [0xCE] (v1)
    and [0xCF] (v2), is a bad magic.  v3 has a Catchup kind so a restarted
    engine can be brought up to date on decisions taken while it was down.

    The body starts with a one-byte kind tag:
    - [0x01] Hello:  node id (4 bytes) — sent once per direction when a
      connection opens, so the receiving end learns who is talking; node id
      0 identifies a client connection rather than a mesh peer;
    - [0x02] Data:   varint instance + round (4 bytes) + opaque payload;
    - [0x03] Ctl:    varint instance + round (4 bytes) — a synchronization
      message; like the paper's control messages it carries no payload;
    - [0x04] Submit: varint instance + proposal (4 bytes) — client asks the
      receiving node to start that agreement instance with this proposal;
    - [0x05] Decide: varint instance + round (4 bytes) + value (4 bytes) —
      node reports its decision for the instance back to clients;
    - [0x06] Catchup: varint instance + round (4 bytes) + value (4 bytes) —
      a peer replays one entry of its decision log to a node that
      re-handshook into the mesh after a restart.

    The same encoder/decoder pair runs under both the socket transport and
    the in-memory loopback, so loopback tests exercise the exact bytes that
    go on a real wire.  Decoding is incremental: a decoder is fed arbitrary
    byte slices (whatever [read] returned) and pops complete frames; a
    truncated tail — what a killed sender leaves in flight — simply never
    completes, and any header/CRC mismatch is reported as corruption, which
    callers treat as a dead peer.  The hot read path is zero-copy: a reused
    {!view} exposes each frame's fields, with Data payloads as a window into
    the decoder's own buffer. *)

type t =
  | Hello of { node : int }
  | Data of { instance : int; round : int; payload : string }
  | Ctl of { instance : int; round : int }
  | Submit of { instance : int; proposal : int }
  | Decide of { instance : int; value : int; round : int }
  | Catchup of { instance : int; value : int; round : int }

val encode : t -> string
(** One full frame, ready for a single sequential write. *)

val encode_into : Buffer.t -> t -> unit
(** Append {!encode}'s bytes to a buffer the caller reuses. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val max_body : int
(** Upper bound on accepted body length (64 KiB); a length prefix beyond it
    is corruption, not a huge allocation. *)

val max_instance : int
(** Largest encodable instance id ([2^30 - 1]); ids beyond it are rejected
    by the encoder and read as corruption by the decoder. *)

(** Incremental decoder over one connection's byte stream. *)
type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> pos:int -> len:int -> unit
(** Append received bytes. *)

val feed_string : decoder -> string -> unit

val pop : decoder -> [ `Frame of t | `Need_more | `Corrupt of string ]
(** Extract the next complete frame.  [`Need_more] when the buffered bytes
    end mid-frame; [`Corrupt] on bad magic, oversized length, CRC mismatch
    or an unknown kind tag — the stream is unusable from that point on and
    every later [pop] returns the same error. *)

(** Zero-copy read path: one mutable record per decoder, overwritten by
    every successful {!pop_view}.  For Data frames the payload is exposed as
    the window [payload_buf.[payload_pos .. payload_pos+payload_len)] into
    the decoder's receive buffer — valid only until the decoder is next fed
    or popped, so consume (or {!view_payload}-copy) it immediately. *)
type view = private {
  mutable kind : kind;
  mutable node : int;  (** Hello *)
  mutable instance : int;  (** Data/Ctl/Submit/Decide *)
  mutable round : int;  (** Data/Ctl/Decide *)
  mutable value : int;  (** Submit proposal / Decide value *)
  mutable payload_buf : Bytes.t;
  mutable payload_pos : int;
  mutable payload_len : int;
}

and kind = K_hello | K_data | K_ctl | K_submit | K_decide | K_catchup

val pop_view : decoder -> [ `View of view | `Need_more | `Corrupt of string ]
(** Like {!pop} but without materializing: no allocation per frame.  The
    returned view aliases decoder-owned storage and is invalidated by the
    next [feed]/[pop]/[pop_view] on the same decoder. *)

val view_payload : view -> string
(** Copy a Data view's payload out as a fresh string. *)

val frame_of_view : view -> t
(** Materialize (copies the payload). *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by popped frames. *)

val hello_size : int
(** Encoded size of every Hello frame: a handshake reads exactly this many
    bytes, so no bytes beyond it land in the wrong decoder. *)

val hello_of_string : string -> (int, string) result
(** The node id of one encoded Hello; any other frame, a corrupt one or a
    short read is an [Error] starting with ["handshake: "]. *)

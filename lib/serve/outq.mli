(** Per-destination outbound byte queues — the serve loop's no-blocking
    guarantee.

    A send only {e enqueues} bytes; the event loop drains a queue with
    {!drain} when its fd reports writable, resuming partial writes where
    they left off — no blocking write, a halting engine's last prefix
    included — and a queue that climbs past its high-water mark marks
    the destination dead instead of stalling anyone else.  (A blocking
    write in the loop let one slow client stall the whole mesh node.)

    Chunks are refcounted so a broadcast (the same Decide bytes fanned
    out to every client) enqueues one buffer [k] times without copying;
    the buffer returns to its owner's recycle pool only when the last
    queue has written it out.

    {b Lanes.}  A queue may hold several FIFO lanes toward one fd, which
    the owner drains one at a time, in whatever order it needs: the
    engine keeps a peer's Data, Ctl and Catchup frames apart so that a
    turn's Ctl frames reach the kernel only after every peer took its
    Data (DESIGN.md §15).  Lanes switch only between whole chunks: a
    chunk one lane left half-written goes out, alone, before any other
    lane's bytes, so frames never interleave on the wire.  A queue made
    without [lanes] has one, and every [?lane] defaults to it. *)

type chunk
(** One refcounted byte range shared between queues. *)

val chunk :
  ?shares:int -> recycle:(Bytes.t -> unit) -> Bytes.t -> len:int -> chunk
(** Take ownership of [bytes] (callers must not mutate it afterwards).
    [shares] (default 1) is how many queues the chunk will be pushed to;
    [recycle] runs once, after the last share drains or is dropped. *)

type t

val create : ?hwm:int -> ?lanes:int -> unit -> t
(** [hwm] (bytes, default 8 MiB) is the backlog level {!over_hwm} trips
    at, across all lanes; the engine uses it to declare a never-draining
    peer dead.  [lanes] (default 1) numbers the lanes [0 .. lanes - 1]. *)

val push : ?lane:int -> t -> chunk -> unit
val is_empty : ?lane:int -> t -> bool
(** Without [lane]: every lane is empty. *)

val queued_bytes : t -> int
(** Unsent bytes across all lanes. *)

val over_hwm : t -> bool

val drain :
  t -> ?lane:int -> ?stats:Stats.t -> Unix.file_descr ->
  [ `Empty | `Blocked | `Closed of string ]
(** Write [lane]'s chunks to [fd] until the lane empties ([`Empty]) or
    the fd stops accepting bytes ([`Blocked] — re-arm write interest).
    A chunk another lane left half-written is finished first; if that
    blocks, nothing of [lane] is written.  A reset/closed peer reports
    [`Closed].  Never blocks: the fd must be in nonblocking mode.
    [stats] counts actual [write(2)] calls and partial writes. *)

val clear : t -> unit
(** Drop everything queued in every lane, releasing each chunk's share (a dead
    destination's backlog returns to the recycle pool). *)

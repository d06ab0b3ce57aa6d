(** CRC-32 (IEEE 802.3, the zlib/Ethernet polynomial), table-driven.

    Guards every live wire frame: a frame whose body fails its checksum is
    treated as line corruption and the connection it arrived on as dead —
    never fed to the algorithm.  Self-contained so the live runtime adds no
    dependency beyond [unix].  Checksums are native [int]s in
    [0 .. 2^32 - 1]: one loop over an [int] table, so a digest allocates
    nothing. *)

val digest : ?init:int -> string -> pos:int -> len:int -> int
(** Checksum of [len] bytes of the string starting at [pos].  [init]
    continues a running digest (default: fresh). *)

val string : string -> int
(** [string s] = [digest s ~pos:0 ~len:(String.length s)]. *)

val bytes : ?init:int -> Bytes.t -> pos:int -> len:int -> int
(** Same digest over a [Bytes.t] range, without copying — the decoder
    checksums a frame body in place inside its receive buffer, and the
    writer checksums the body it has just written. *)

(** Per-destination outbound byte queues — the serve loop's no-blocking
    guarantee.

    The old engine called a blocking [write_all] (2 s deadline) for every
    send inside the event loop: one slow client stalled the whole mesh
    node and blew the round deadline for every instance — exactly the
    synchrony violation [lib/net] injects on purpose.  Now a send only
    {e enqueues} bytes; the event loop drains a queue when its fd reports
    writable, resuming partial writes where they left off, and a queue
    that climbs past its high-water mark marks the destination dead
    instead of stalling anyone else.

    Chunks are refcounted so a broadcast (the same Decide bytes fanned
    out to every client) enqueues one buffer [k] times without copying;
    the buffer returns to its owner's recycle pool only when the last
    queue has written it out. *)

type chunk
(** One refcounted byte range shared between queues. *)

val chunk :
  ?shares:int -> recycle:(Bytes.t -> unit) -> Bytes.t -> len:int -> chunk
(** Take ownership of [bytes] (callers must not mutate it afterwards).
    [shares] (default 1) is how many queues the chunk will be pushed to;
    [recycle] runs once, after the last share drains or is dropped. *)

type t

val create : ?hwm:int -> unit -> t
(** [hwm] (bytes, default 8 MiB) is the backlog level {!over_hwm} trips
    at; the engine uses it to declare a never-draining peer dead. *)

val push : t -> chunk -> unit
val is_empty : t -> bool
val queued_bytes : t -> int
val over_hwm : t -> bool

val drain : t -> ?stats:Stats.t -> Unix.file_descr -> [ `Empty | `Blocked | `Closed of string ]
(** Write queued chunks to [fd] until the queue empties ([`Empty]) or the
    fd stops accepting bytes ([`Blocked] — re-arm write interest).  A
    reset/closed peer reports [`Closed].  Never blocks: the fd must be
    in nonblocking mode.  [stats] counts actual [write(2)] calls and
    partial writes. *)

val drain_blocking : t -> deadline:float -> Unix.file_descr -> unit
(** Best-effort synchronous flush, waiting for writability up to
    [deadline] — used only off the event loop (pre-halt delivery of the
    kill budget's allowed prefix, final shutdown), never in steady
    state. *)

val clear : t -> unit
(** Drop everything queued, releasing each chunk's share (a dead
    destination's backlog returns to the recycle pool). *)

(** Per-destination output coalescing — the serve layer's key perf lever.

    Without batching every frame is its own send; a round touching
    hundreds of instances then costs hundreds of syscalls per peer.  The
    batcher encodes frames straight into one growable byte buffer per
    destination ({!add_frame}, through {!Live.Frame.write}: no string per
    frame, no second copy).  A frame handed in twice in a row — the same
    value, as a coordinator's round sends one Data and then one Ctl to
    every peer — is encoded once and its bytes copied.  [flush] hands each
    non-empty buffer to the transport {e without copying}: the [send]
    callback either takes ownership of the buffer ([`Taken] — the engine
    wraps it in a refcounted {!Outq.chunk} and the bytes come back through
    {!put_back} once drained) or drops it ([`Done] — no client is
    listening, or the peer is dead).  Either way the [Buffer.contents] copy the old flush paid
    per destination per wakeup is gone; {!Stats.t.copies_saved} counts
    how often.

    Destination 0 is the client channel; 1..n are the owner's output
    streams.  {!Engine} gives each (peer, lane) pair of its {!Outq} its
    own destination, so a turn's Data, Ctl and Catchup frames to one
    peer coalesce into separate buffers and can reach the kernel in the
    paper's order.  In
    [batch:false] mode an add sends each frame immediately (its own
    buffer, its own write) and [flush] is a no-op — the same code path,
    only the coalescing differs, which is what keeps the comparison
    honest.  The batcher counts frames and flushes, never writes:
    [write_calls] is counted by {!Outq.drain} at the actual [write(2)],
    so a dropped send costs none. *)

type t

val create :
  n:int ->
  batch:bool ->
  stats:Stats.t ->
  send:(dest:int -> Bytes.t -> len:int -> [ `Taken | `Done ]) -> t
(** [send ~dest bytes ~len] delivers the first [len] bytes of [bytes].
    Return [`Taken] to keep the buffer (return it later via {!put_back});
    return [`Done] to drop it, leaving it to the batcher. *)

val add_frame : t -> dest:int -> Live.Frame.t -> unit
(** Encode [frame] for [dest].  If [frame] is physically the frame this
    batcher took last, and no {!flush} came in between, its bytes are
    copied from where they were written instead of encoded again.
    Counts like {!add} of its encoding. *)

val add : t -> dest:int -> string -> unit
(** Add bytes that are already encoded. *)

val flush : t -> unit

val put_back : t -> Bytes.t -> unit
(** Return a previously [`Taken] buffer for reuse. *)

(** The per-node instance multiplexer: thousands of concurrent agreement
    instances advancing through their rounds over one shared mesh.

    Pure state machine — no sockets, no clocks of its own.  The engine
    (socket or loopback) feeds it decoded frame views, submits, and the
    current time; it answers through the [emit] callback (destination 0 is
    the client channel, 1..n are mesh peers) and exposes the earliest
    pending round deadline for the event loop's readiness-wait timeout.

    Rounds are pipelined across instances: each instance tracks its own
    round and deadline, advancing {e early} the moment its
    {!Binding.ALGO.round_senders} certificate is complete (a fast round) and
    falling back to the deadline otherwise (an expired round — a crashed
    coordinator costs one [big_d] for that instance only; every other
    instance keeps deciding at message speed).

    A [kill_after] budget counts {e mesh} frame writes (Data/Ctl to peers —
    client-bound Decide frames don't burn it).  When the budget runs out
    the mux halts mid-send, recording for every live instance the exact
    prefix-crash phase it realized — the instance interrupted mid-round
    keeps its partial write count, everything else crashes before/after its
    current round's sends — so each surviving instance can be judged
    against the abstract engine under its own realized schedule. *)

type config = {
  me : int;
  n : int;
  t : int;
  big_d : float;  (** per-round receive window, seconds *)
  max_rounds : int;  (** horizon; [t + 1] suffices for RWWC *)
  kill_after : int option;
      (** halt before writing mesh frame number [k + 1] *)
}

type realized = { instance : int; round : int; phase : Live.Script.phase }

val realized_to_json : realized -> Obs.Json.t
val realized_of_json : Obs.Json.t -> (realized, string) result

module Make (A : Binding.ALGO) : sig
  type t

  val create :
    config ->
    ?persist:(instance:int -> value:int -> round:int -> unit) ->
    ?recall:((instance:int -> value:int -> round:int -> unit) -> unit) ->
    emit:(dest:int -> Live.Frame.t -> unit) ->
    unit ->
    t
  (** [emit] receives every outbound frame; destination 0 means "to the
      clients", otherwise the mesh peer id.  Called synchronously from
      {!submit}/{!on_view}/{!expire}.

      [persist] (the WAL {e staging} call, {!Wal.add}) runs on every new
      decision before its Decide frame is emitted.  The owner must make
      what it staged durable before any emitted frame reaches a socket:
      commit, then {!committed}, then flush.  {!Wal.append} as [persist]
      satisfies that by itself.

      [recall] streams every committed decision of the log [persist]
      writes ({!Wal.iter}); it is ignored without [persist].  With both,
      the decision table spills: a chunk of {!Decided.chunk_size}
      instances that are all decided drops out of memory at the first
      {!committed} after its last decision, and the log answers for it
      from then on.  Without them every decision stays resident. *)

  val committed : t -> unit
  (** The owner's commit returned, so everything persisted so far is
      durable.  Answers this turn's re-submits of spilled instances with
      one pass of [recall] over the log, then spills every chunk that
      completed before the commit.  A no-op without [recall]. *)

  val submit : t -> now:float -> instance:int -> proposal:int -> unit
  (** Start (or ignore, if known) an instance with this node's proposal. *)

  val on_view : t -> now:float -> from:int -> Live.Frame.view -> unit
  (** Feed one decoded mesh frame.  The view is consumed before return, so
      the zero-copy payload window is safe to reuse. *)

  val expire : t -> now:float -> unit
  (** Advance every instance whose round deadline has passed. *)

  val seed_decision : t -> instance:int -> value:int -> round:int -> unit
  (** Recovery: mark an instance decided (WAL replay) without emitting or
      re-persisting.  Re-submits are then answered from the decision table
      (or the log) instead of re-running the instance.  Replayed chunks
      spill at the next {!committed}. *)

  val catchup : t -> peer:int -> int
  (** Emit every decision to [peer] as a Catchup frame, then the round-0
      end-of-batch marker carrying the count; returns that count.  With
      [recall] the decisions stream from the log, so call it right after
      a commit; otherwise they come from the table, in instance order. *)

  val decided_count : t -> int
  val spilled_chunks : t -> int

  val set_mirror : t -> int list -> unit
  (** Peers that recently rejoined: every {e new} decision is also sent to
      them as a Catchup frame, covering instances that were in flight
      while they were down.  Mirrored frames don't burn the [kill_after]
      budget — they are recovery traffic, like client-bound Decides. *)

  val next_deadline : t -> float option
  val active : t -> int

  val halted : t -> bool
  val realized : t -> realized list
  (** After a budget halt: per-instance crash points, sorted by instance. *)

  val stats : t -> Stats.t
  val mesh_writes : t -> int
  val slab_capacity : t -> int
  val slab_reused : t -> int
end

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
    emit:(dest:int -> Live.Frame.t -> unit) ->
    unit ->
    t
  (** [emit] receives every outbound frame; destination 0 means "to the
      clients", otherwise the mesh peer id.  Called synchronously from
      {!submit}/{!on_view}/{!expire}.  [persist] (the WAL append) runs on
      every new decision {e before} its Decide frame is emitted, so any
      decision a client can observe is already durable. *)

  val submit : t -> now:float -> instance:int -> proposal:int -> unit
  (** Start (or ignore, if known) an instance with this node's proposal. *)

  val on_view : t -> now:float -> from:int -> Live.Frame.view -> unit
  (** Feed one decoded mesh frame.  The view is consumed before return, so
      the zero-copy payload window is safe to reuse. *)

  val expire : t -> now:float -> unit
  (** Advance every instance whose round deadline has passed. *)

  val seed_decision : t -> instance:int -> value:int -> round:int -> unit
  (** Recovery: mark an instance decided (WAL replay) without emitting or
      re-persisting.  Re-submits are then answered from the decision log
      instead of re-running the instance. *)

  val iter_decided :
    t -> (instance:int -> value:int -> round:int -> unit) -> unit
  (** Every decision in the log, in no particular order — the engine
      replays these as Catchup frames to a peer that rejoins the mesh. *)

  val decided_count : t -> int

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
  val gave_up : t -> int
  val mesh_writes : t -> int
  val slab_capacity : t -> int
  val slab_reused : t -> int
end

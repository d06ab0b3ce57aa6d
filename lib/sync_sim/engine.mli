(** The round-based synchronous executor, flat-memory core.

    Implements the lockstep semantics of Section 2.1 for both models:
    - every message sent in round [r] to a live-enough destination is
      received in round [r] (reliable channels);
    - a sender crashing during the data step delivers to the adversary's
      chosen subset of its planned destinations;
    - a sender crashing during the control step delivers to a prefix of its
      ordered control destinations (extended model only);
    - a process that crashes in round [r] performs no computation in round
      [r] (and none ever after); a process that decides halts.

    Bit accounting follows Theorem 2: a data message costs
    [msg_bits ~value_bits], a control message costs one bit; only messages
    actually put on the wire are counted.

    Memory layout (DESIGN.md §13): all per-round receive state lives in
    preallocated flat buffers — one data arena (parallel sender/payload
    arrays with a fixed-size segment per process), one word bitmap for the
    control receive-sets, and struct-of-arrays process bookkeeping.  A
    steady-state round allocates nothing; algorithms implementing
    {!Algorithm_intf.FLAT} run zero-copy through {!Make_flat}, while the
    legacy list API runs unchanged through {!Make} (a thin adapter over the
    same core).  The golden differential suite pins it byte-identical to
    {!Reference}, the same round as a pure step.

    Quiet-round fast path: an algorithm declaring
    {!Algorithm_intf.Coordinator_rounds} quiescence lets unobserved runs
    touch, per round, only the round's coordinator, the processes crashing
    that round and the inboxes that received something; the observable
    result is unchanged (the byte-identity suite covers this path), but
    traced or instrumented runs always take the full per-process scan so
    event order inside a round stays the historical one.

    Observability: the engine emits every run event ({!Obs.Event.t}) through
    the configured {!Obs.Instrument.t}.  With the null instrument the hot
    path constructs no events at all; [record_trace] is sugar for composing
    an {!Obs.Trace_sink} in front of the caller's instrument and storing the
    projection ({!Trace.of_obs}) in the result. *)

open Model

type config = {
  n : int;  (** number of processes, [>= 2] *)
  t : int;  (** resilience: max tolerated crashes, [0 <= t < n] *)
  proposals : int array;  (** length [n]; proposal of [p_i] at index [i-1] *)
  schedule : Schedule.t;  (** the adversary's crash plan *)
  value_bits : int;  (** the paper's |v|, [>= 2] *)
  max_rounds : int;  (** hard stop; processes still running then stay
                         [Undecided] *)
  record_trace : bool;
  instrument : Obs.Event.t Obs.Instrument.t;
      (** observer sink fed with every run event; [Obs.Instrument.null]
          (the default) costs nothing *)
}

val config :
  ?value_bits:int ->
  ?max_rounds:int ->
  ?record_trace:bool ->
  ?instrument:Obs.Event.t Obs.Instrument.t ->
  ?schedule:Schedule.t ->
  n:int ->
  t:int ->
  proposals:int array ->
  unit ->
  config
(** Smart constructor with defaults: [value_bits = 32], [max_rounds = t + 2]
    (enough for every native algorithm in this repository: f+1, f+2 and t+1
    round protocols all fit), [record_trace = false],
    [instrument = Obs.Instrument.null], empty schedule.  Validates all
    invariants listed on the record fields; raises [Invalid_argument] on
    violation. *)

val distinct_proposals : int -> int array
(** [distinct_proposals n] is [[|1; 2; ...; n|]] — the canonical workload in
    which every decision can be traced back to its proposer. *)

exception Model_violation of string
(** Raised when an algorithm declared [Classic] emits control messages, or
    when the schedule contains a crash point invalid for the algorithm's
    model. *)

module Make_flat (A : Algorithm_intf.FLAT) : sig
  val run : config -> Run_result.t
  (** Execute one run to completion (all processes decided or crashed) or to
      [max_rounds]. *)

  val runner : config -> Schedule.t -> Run_result.t
  (** [runner cfg] preallocates the run scratch (state/status arrays, the
      data arena, the control bitmap, the flattened crash plan, wire
      counters) once and returns a closure executing one run per given
      schedule against it.  [cfg.schedule] is ignored — each call validates
      and runs the schedule it is passed.  Results are identical to
      [run { cfg with schedule }]; the point is the sweep hot path: a warm
      runner round performs {e zero} minor-heap allocation for an algorithm
      whose [send]/[receive] are themselves allocation-free (pinned by the
      Gc-counter test), which is what makes exhaustive model checking over
      millions of schedules and single runs at [n >= 1024] feasible.  The
      closure owns mutable scratch and is {e not} thread-safe: create one
      runner per domain. *)
end

module Make (A : Algorithm_intf.S) : sig
  val run : config -> Run_result.t
  val runner : config -> Schedule.t -> Run_result.t
end
(** Legacy list-API entry point: [Make (A)] is [Make_flat] over the
    {!Algorithm_intf.Of_list} adapter.  Per round it allocates exactly the
    receive lists the previous engine built anyway; results are
    byte-identical. *)

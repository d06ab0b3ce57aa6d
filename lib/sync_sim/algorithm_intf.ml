(** The interface a round-based algorithm presents to the engine.

    An algorithm is a deterministic per-process state machine.  In each round
    the engine asks it, in this order, for (1) its data messages, (2) its
    ordered control-message destinations, and then — if the process is still
    alive — feeds it everything it received and lets it compute, possibly
    deciding.  The two send steps happen "without a break": both are
    computed from the state as it stood at the start of the round, never
    from anything received during the round. *)

open Model

(** A static promise about when a process is guaranteed to be inert,
    letting the flat engine skip whole per-process steps on quiet rounds.

    [Chatty] promises nothing: the engine calls [send] and [receive] for
    every live process every round.  Always safe.

    [Coordinator_rounds] declares the rotating-coordinator shape of the
    paper's algorithms: process [p] emits messages {e only} in round [p],
    and in any round [r <> p] a [receive] over an empty view (no data, no
    control messages) returns the state unchanged and never decides.  The
    engine may then, on unobserved runs, touch only the round's
    coordinator, the processes with non-empty inboxes, and the processes
    crashing that round — everything else provably does nothing.  The
    observable result (statuses, decisions, wire counters) is identical to
    the [Chatty] execution; only event {e ordering} inside a round may
    differ, which is why traced runs always take the full path. *)
type quiescence = Chatty | Coordinator_rounds

module type S = sig
  type state
  (** Per-process local state. *)

  type msg
  (** Data-message payloads.  Control (synchronization) messages carry no
      payload; the engine represents them implicitly. *)

  val name : string
  (** Human-readable algorithm name for reports. *)

  val model : Model_kind.t
  (** The model the algorithm is written for.  The engine refuses to run an
      [Extended] algorithm that emits control messages under the classic
      model. *)

  val decision_mode : [ `Halt | `Announce ]
  (** What a decision means operationally.

      [`Halt] — the paper's [return(v)]: the process terminates on deciding
      and sends nothing afterwards (every algorithm in the paper).

      [`Announce] — {e early deciding} without {e early stopping}: the
      process records its decision but keeps executing rounds (relaying
      information) until the run winds down.  This is the mode of the
      classic-model non-uniform f+1 baseline, where a decided process must
      keep relaying or correct processes could disagree; a crash after the
      announcement is tracked separately
      ({!Run_result.post_decision_crashes}) because the decision still
      counts for (uniform) agreement. *)

  val msg_bits : value_bits:int -> msg -> int
  (** Size of a data message in bits, given the declared size [value_bits]
      of a proposal value (the paper's |v|).  Control messages always count
      for one bit (Theorem 2). *)

  val pp_msg : Format.formatter -> msg -> unit

  val init : n:int -> t:int -> me:Pid.t -> proposal:int -> state
  (** Initial state of process [me] proposing [proposal] in a system of [n]
      processes of which at most [t] may crash. *)

  val data_sends : state -> round:int -> (Pid.t * msg) list
  (** Data messages to emit this round, in sending order. *)

  val sync_sends : state -> round:int -> Pid.t list
  (** Ordered destinations of the control message for this round; must be
      [[]] when {!model} is [Classic].  If the process crashes during this
      step, an arbitrary {e prefix} of the list is served. *)

  val compute :
    state ->
    round:int ->
    data:(Pid.t * msg) list ->
    syncs:Pid.t list ->
    state * int option
  (** Computation phase: [data] are the received data messages and [syncs]
      the senders of received control messages, both in increasing sender
      order.  Returns the new state and an optional decision.  A decision
      terminates the process (it sends nothing in later rounds). *)
end

(** The zero-copy extension of {!S}: the same algorithm, additionally able
    to run against the flat engine core without per-round list building.

    [send] replaces [data_sends]/[sync_sends] by emitting directly into the
    engine's arena buffers; [receive] replaces [compute] by reading a
    {!Round_view.t} over them and signalling decisions through
    {!Round_view.decide}.  The list functions stay part of the signature —
    {!Reference} (and through it the lower-bound search) drives algorithms
    through them, and {!Of_list} derives the flat half mechanically — so a
    module of this type runs identically under both.

    One semantic note: the flat receive-set is a bitset over senders, so
    duplicate control messages from one sender to one destination in a
    single round collapse into one.  Control messages are idempotent
    liveness signals and no algorithm in this repository emits duplicates;
    the list API preserved them only as an artifact of its representation. *)
module type FLAT = sig
  include S

  val quiescence : quiescence
  (** See {!type:quiescence}.  Declare [Coordinator_rounds] only when both
      of its guarantees hold for every reachable state; when in doubt,
      [Chatty] is always correct. *)

  val send : state -> round:int -> msg Emitter.t -> unit
  (** Emit this round's data messages and ordered control destinations,
      all computed from the start-of-round state ("without a break").
      Control emission order is the crash-prefix order. *)

  val receive : state -> round:int -> msg Round_view.t -> state
  (** Computation phase over the view.  Decide via {!Round_view.decide};
      return the new state (returning [state] itself is the zero-allocation
      steady state). *)
end

(** The thin adapter keeping the legacy list API runnable on the flat
    engine: [send] replays [data_sends] then [sync_sends] through the
    emitter, [receive] materializes the view as the two sorted lists
    [compute] expects.  Per round this allocates exactly the lists the old
    engine built anyway — migrated algorithms skip it entirely. *)
module Of_list (A : S) : FLAT with type state = A.state and type msg = A.msg =
struct
  include A

  (* The list API gives no visibility into [compute]'s behaviour on empty
     inboxes, so the adapter can never promise quiescence. *)
  let quiescence = Chatty

  (* Plain recursion instead of [List.iter]: the iterated closures would
     otherwise be two fresh allocations on every process-round. *)
  let rec replay_data e = function
    | [] -> ()
    | (dest, m) :: tl ->
      Emitter.data e dest m;
      replay_data e tl

  let rec replay_syncs e = function
    | [] -> ()
    | dest :: tl ->
      Emitter.sync e dest;
      replay_syncs e tl

  let send state ~round e =
    replay_data e (A.data_sends state ~round);
    replay_syncs e (A.sync_sends state ~round)

  let receive state ~round view =
    let data = Round_view.data_list view and syncs = Round_view.sync_list view in
    let state, decision = A.compute state ~round ~data ~syncs in
    (match decision with None -> () | Some v -> Round_view.decide view v);
    state
end

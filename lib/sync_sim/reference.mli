(** The reference semantics of a round (Section 2.1): a pure step over
    immutable configurations, and a run as a fold of that step.

    The differential twin of {!Engine.Make_flat}, pinned
    {!Run_result.equal_observable}-identical to it by [test/test_flat.ml]
    and the minimizer oracle's [engine-reference] lane.  It drives only the
    list half of {!Algorithm_intf.S} and shares nothing with the flat engine
    but {!Engine.config} and {!Engine.Model_violation}.  [Lower_bound.Stepper]
    searches the same configurations.  Not a hot path. *)

open Model

module Make (A : Algorithm_intf.S) : sig
  type proc = private {
    state : A.state;
    status : Run_result.status;  (** [Undecided]: still running *)
    active : bool;
        (** still sends and computes: running, or decided under
            [`Announce] and not crashed since *)
  }

  type config = private {
    procs : proc array;  (** index [i] holds process [i+1] *)
    t : int;  (** the crash budget *)
    value_bits : int;
    next_round : int;
    crashes : int;  (** crashes spent, post-decision ones included *)
    data_msgs : int;  (** wire counters of the rounds stepped so far *)
    data_bits : int;
    sync_msgs : int;  (** one bit each *)
    post_decision_crashes : Pid.Set.t;
  }

  type crash = Pid.t * Crash.point

  val initial : Engine.config -> config
  (** The configuration before round 1; the config's schedule and
      [max_rounds] are the run's business, not the step's. *)

  val running : config -> Pid.t list
  (** Processes that are alive and undecided. *)

  val statuses : config -> Run_result.status array
  val decided_values : config -> int list

  val step : config -> crashes:crash list -> config
  (** Execute one round, crashing each listed process at its point ([[]]:
      a failure-free round).  Raises [Invalid_argument] if a victim is not
      active or is listed twice, or the budget is exceeded, and
      {!Engine.Model_violation} if a [Classic] algorithm plans control
      messages. *)

  val run : Engine.config -> Run_result.t
  (** Fold {!step} over the rounds, with the schedule's crashes of each
      round that hit an active process, until no process is running or
      [max_rounds] rounds have run.  Raises {!Engine.Model_violation} on a
      schedule invalid for [A.model].  Emits no trace or instrument event:
      [record_trace] and [instrument] are ignored and [trace] is [[]]. *)

  val runner : Engine.config -> Schedule.t -> Run_result.t
  (** [runner cfg schedule] is [run { cfg with schedule }]. *)
end

(** The differential conformance oracle.

    Five independent executions of the Figure 1 protocol coexist in this
    repository: the abstract round engine ({!Sync_sim.Engine.run}), its
    reused-scratch twin ([runner]), the reference semantics as a fold of
    the pure round step ({!Sync_sim.Reference}), the continuous-time LAN
    realization ({!Lan.Realization} on {!Timed_sim.Timed_engine}), and the
    fault-masking transport ({!Lan.Masked}).  Each was validated against a
    spec in isolation; this module checks them against {e each other}, per
    schedule — any disagreement in decisions, decision rounds or crash-set
    is a bug in one of the five, reported loudly with the per-lane
    verdicts.  EXP-DIFF runs it over the full canonical n=4 sweep; the
    [fuzz] subcommand and CI smoke feed it random schedules and fault
    plans, shrinking on failure. *)

open Model

type lane = {
  name : string;
      (** [engine-run], [engine-runner], [engine-reference] or [timed-lan] *)
  decisions : (int * int * int) list;  (** (pid, value, round), pid order *)
  crashed : int list;  (** crashed without deciding, pid order *)
  note : string;  (** non-empty when the lane was skipped, with the reason *)
}

type verdict =
  | Agree of lane list
  | Disagree of { lanes : lane list; diffs : string list }

val lanes : verdict -> lane list

val check_schedule : n:int -> t:int -> Schedule.t -> verdict
(** Run one crash schedule through the abstract engine (both entry
    points) and the reference semantics, all three compared via
    {!Sync_sim.Run_result.equal_observable}, and through the timed LAN
    realization (D = 100, δ = 2, latencies uniform in (0, D],
    fixed seed — latency draws cannot change the verdict, which is the
    realization's own theorem).  The timed lane is skipped — noted, not
    failed — on schedules whose [During_data] subsets are not prefixes of
    the wire order, which no LAN realization can express
    ({!Lan.Realization.translate_rwwc_schedule}). *)

val agrees : n:int -> t:int -> Schedule.t -> bool

type masked_verdict =
  | Masked  (** decided exactly like the abstract engine *)
  | Detected of Net.Synchrony_violation.t
      (** aborted with a structured violation, nothing decided wrongly *)
  | Wrong of string  (** the one outcome that must never appear *)

val check_masked :
  ?n:int ->
  budget:int ->
  faults:Net.Fault_plan.t ->
  seed:int64 ->
  unit ->
  masked_verdict * int
(** One run of the Figure 1 algorithm over the retransmitting
    {!Lan.Masked} transport (D = 10, δ = 1, [n] defaults to 6) under the
    given fault plan, differentially compared against the abstract engine
    — with an online uniform-consensus guard attached to every decision
    event.  Returns the verdict and the number of faults the plan
    injected.  This is the chaos harness's [run_one], hoisted here so the
    shrinker can re-evaluate it on {!Net.Fault_plan.scripted}
    candidates. *)

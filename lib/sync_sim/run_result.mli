(** The observable outcome of one simulated run. *)

open Model

type status =
  | Decided of { value : int; at_round : int }
      (** The process invoked [return(value)] during [at_round]'s
          computation phase.  A process that decides terminates; a crash
          scheduled for a later round has no effect on it. *)
  | Crashed of { at_round : int }
      (** The process crashed (without having decided). *)
  | Undecided
      (** Still running when the engine hit its round limit — a termination
          failure unless the limit was deliberately tight. *)

type t = {
  n : int;
  t : int;
  proposals : int array;
  statuses : status array;  (** index [i] holds the status of process [i+1] *)
  rounds_executed : int;
  data_msgs : int;  (** data messages put on the wire *)
  data_bits : int;
  sync_msgs : int;  (** control messages put on the wire *)
  sync_bits : int;
  post_decision_crashes : Pid.Set.t;
      (** processes that crashed {e after} announcing a decision (only
          possible for [`Announce]-mode algorithms).  Their status stays
          [Decided] — the decision counts for uniform agreement — but they
          are faulty in the run: they count towards [f] and are excluded
          from {!correct}. *)
  trace : Trace.event list;  (** chronological; empty unless recording was on *)
}

val status : t -> Pid.t -> status

val decisions : t -> (Pid.t * int * int) list
(** [(pid, value, round)] for each decided process, increasing pid. *)

val decided_values : t -> int list
(** De-duplicated decided values. *)

val crashed : t -> Pid.Set.t
(** Processes that crashed without deciding. *)

val all_crashes : t -> Pid.Set.t
(** Every process that crashed during the run, decided or not — the
    paper's [f]. *)

val correct : t -> Pid.Set.t
(** Processes that never crashed — neither before nor after deciding. *)

val max_decision_round : t -> int option
(** Latest round in which some process decided; [None] if nobody did. *)

val all_correct_decided : t -> bool

val equal_observable : t -> t -> bool
(** Equality on everything except the trace: statuses, rounds executed,
    wire counters and post-decision crashes.  This is the relation the
    differential oracle checks between {!Engine.run}, the reused-scratch
    {!Engine.runner} and {!Reference} — traces are excluded because
    recording is optional and orthogonal to the outcome. *)

val total_msgs : t -> int
val total_bits : t -> int

val pp : Format.formatter -> t -> unit
(** Compact per-process summary (no trace). *)

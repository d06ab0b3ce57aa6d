(** The algorithm registry: the one place that knows how to sweep an
    algorithm.

    A repro artifact, a [check] invocation or a distributed job names its
    algorithm as a string; this module maps the name back to a runner
    factory plus the per-run round bound its specification promises, and
    derives from the algorithm's model the schedule space a sweep folds
    (symmetry-reduced or full).  Every exhaustive sweep in the repository —
    [check], the {!Dist} worker, EXP-MC/ABL/DIST/DIFF and the bench kernels
    — goes through {!space} and {!verdict}.  The deliberately broken
    {!Core.Rwwc_variants} ablations are first-class citizens — they are
    what the shrinker most often shrinks. *)

open Model
open Sync_sim

type t = {
  name : string;
  model : Model_kind.t;
  broken : bool;  (** an ablation expected to violate some property *)
  runner : n:int -> t:int -> Schedule.t -> Run_result.t;
      (** [runner ~n ~t] preallocates one engine runner
          ({!Sync_sim.Engine.Make_flat}[.runner]) on the canonical
          distinct-proposals workload and returns a closure running one
          schedule per call.  Full application is a one-shot run.  The
          closure owns mutable scratch: one per domain. *)
  bound : t:int -> Run_result.t -> int;
      (** the round bound the algorithm promises for this run
          ([f_actual + 1] for the rwwc family, [t + 1] for flood,
          [min (t+1) (f_actual+2)] for early stopping) *)
}

val all : t list
(** [rwwc], its three broken ablations ([data-decide], [ascending-commit],
    [piggyback-commit]), [flood] and [early-stopping]. *)

val names : string list

val find : string -> (t, string) result
(** [Error] carries the "unknown algorithm" usage message. *)

val get : string -> t
(** {!find} for names fixed in code; raises [Invalid_argument] with the
    same message. *)

val checks : t -> t:int -> Run_result.t -> Spec.Properties.check list
(** Uniform consensus with the algorithm's own round bound. *)

val verdict : t -> n:int -> t:int -> Schedule.t -> Spec.Properties.check list
(** [verdict algo ~n ~t] preallocates one runner; the closure runs a
    schedule and returns its failing {!checks} ([[]]: the run satisfies
    uniform consensus within the bound).  Not thread-safe, like the
    runner. *)

val violation : t -> n:int -> t:int -> Schedule.t -> Spec.Properties.check option
(** Run the schedule once; the first failing check, if any. *)

val profile : t -> n:int -> t:int -> Adversary.Canonical.profile
(** The symmetry profile of the algorithm's model:
    {!Adversary.Canonical.rotating_coordinator} for the extended model (the
    rwwc family), {!Adversary.Canonical.broadcast} for the classic one
    (flood, early stopping). *)

val space :
  t -> symmetry:bool -> n:int -> t:int -> max_f:int -> max_round:int ->
  Schedule.t Seq.t
(** The lazy schedule space of a sweep: one representative per symmetry
    class of {!profile} ([symmetry = true]), or the whole
    {!Adversary.Enumerate.schedules} space of the algorithm's model. *)

type sweep = {
  checked : int;  (** schedules folded *)
  violations : (Schedule.t * Spec.Properties.check list) list;
      (** failing schedules with their failures, in enumeration order *)
}

val sweep : t -> n:int -> t:int -> Schedule.t Seq.t -> sweep
(** Fold a (slice of a) {!space} through one {!verdict}. *)

val first_violation :
  t -> n:int -> t:int -> max_f:int -> max_round:int ->
  (Schedule.t * Spec.Properties.check) option * int
(** The first schedule of the full space (in {!Adversary.Enumerate.schedules}
    order) on which some uniform-consensus check fails, and how many
    schedules were searched to find it (the whole space when none fails) —
    the shrinker's canonical entry point for broken variants. *)

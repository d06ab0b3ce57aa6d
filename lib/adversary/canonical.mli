(** Symmetry reduction for the exhaustive model checker.

    The schedule space of {!Enumerate.schedules} is heavily redundant: most
    of its [2^(n-1)] [During_data] subsets per victim per round describe
    crashes the engine cannot distinguish, because the victim was never
    going to send to the dropped destinations in that round anyway.  This
    module quotients the space by two equivalences and enumerates one
    representative per class:

    {b Layer 1 — crash-point classes.}  Given a {!profile} that upper-bounds
    what a victim can have planned in each round (the static send topology
    of the algorithm family), two crash points of the same victim in the
    same round are equivalent when they deliver the same subset of the
    planned data destinations and the same prefix length of the planned
    sync destinations.  The engine's transition relation depends on a crash
    point only through that delivered pair, so equivalent points yield
    identical {!Sync_sim.Run_result.t}s (instrument event payloads may
    differ in the recorded point, nothing else).  Additionally, a crash
    scheduled after the round by which the victim has provably decided and
    halted ([halts_by]) is never applied by the engine and is dropped: the
    schedule without the binding — also a member of the enumerated space —
    produces the identical result, including [f_actual].

    {b Layer 2 — pid renaming.}  When the algorithm treats a set of pids
    interchangeably ([movable]) and the verdict predicate is invariant
    under the induced value relabeling (uniform consensus over injective
    proposal vectors is), schedules related by a permutation of [movable]
    pids have equal verdicts and only the orbit minimum is enumerated.
    Rotating-coordinator algorithms pin every pid to a distinct role, so
    their profile declares [movable = {}]; full-broadcast algorithms
    (flood-set, early-stopping) declare every pid movable.

    Soundness: [canonical] maps every enumerated schedule to a schedule
    with an equal verdict that {!schedules} emits, so a sweep over the
    reduced space finds a violation iff one exists in the full space.  The
    tests pin this with the broken [Rwwc_variants.Data_decide] ablation,
    whose violating schedules must canonicalize exactly onto the violating
    representatives. *)

open Model

type profile = {
  label : string;
  data_dests : victim:Pid.t -> round:int -> Pid.Set.t;
      (** superset of the data destinations the victim can have planned *)
  sync_count : victim:Pid.t -> round:int -> int;
      (** upper bound on the length of the victim's ordered sync list *)
  halts_by : victim:Pid.t -> int option;
      (** a round by whose end the victim has surely decided and halted if
          still alive (decision mode [`Halt] only); [None] if unknown *)
  movable : Pid.Set.t;
      (** pids the algorithm treats interchangeably; [{}] disables layer 2 *)
}
(** A conservative static description of an algorithm family's send
    topology.  Looser bounds (bigger [data_dests], larger [sync_count],
    [halts_by = None], empty [movable]) are always sound and merely reduce
    less. *)

val rotating_coordinator : n:int -> profile
(** Figure 1's family (rwwc and its variants): process [v] sends only in
    round [v], data to [v+1 .. n], syncs to at most [n - v] destinations,
    and decides in round [v] if alive.  No movable pids. *)

val broadcast : n:int -> t:int -> profile
(** Full-information classic-model baselines (flood-set, early-stopping):
    every process broadcasts to everyone else each round, sends no syncs,
    decides by round [t + 1], and all pids are interchangeable. *)

val point_class : dests:Pid.Set.t -> syncs:int -> Crash.point -> Crash.point
(** The one crash-point reduction rule, for a victim planning data to
    [dests] and [syncs] ordered syncs this round: points share a class iff
    they deliver the same subset of [dests] and the same sync prefix.  The
    profiles below and [Lower_bound.Stepper]'s search (over the victim's
    actual plan) both use it. *)

val distinct_points : dests:Pid.Set.t -> syncs:int -> Crash.point Seq.t
(** One point per class: [Before_send], [During_data s] for nonempty proper
    subsets [s] of [dests], then [After_data k] and [After_send] where they
    differ from the others. *)

val canonical_point :
  profile -> victim:Pid.t -> round:int -> Crash.point -> Crash.point
(** {!point_class} over the profile's bounds (layer 1). *)

val canonical : profile -> Schedule.t -> Schedule.t
(** Full canonical form: drop no-op crashes, canonicalize every point, then
    (layer 2) take the least schedule over all [movable]-pid renamings.
    Idempotent; the result is emitted by {!schedules} whenever the input is
    within the corresponding enumeration bounds. *)

val compare : Schedule.t -> Schedule.t -> int
(** A total order on schedules (bindings, then rounds, then points) used
    for orbit minimization and deterministic violation reporting. *)

val equal : Schedule.t -> Schedule.t -> bool

val schedules : profile -> n:int -> max_f:int -> max_round:int -> Schedule.t Seq.t
(** Representative-only counterpart of {!Enumerate.schedules}: every
    schedule of the full space canonicalizes to exactly one element of this
    stream.  Lazy and persistent, so it shards with {!Enumerate.shard}.
    With [movable] pids the renamings are built once per call, and a
    schedule is dropped at the first renaming whose normalized image is
    smaller (the orbit test), without computing {!canonical}. *)

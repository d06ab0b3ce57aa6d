(** Exhaustive schedule enumeration for model checking small systems.

    For small [n] the space of crash schedules is finite once delivery
    subsets are restricted to actual process sets and prefixes to
    [0 .. n-1]; enumerating it turns property testing into genuine model
    checking — the unit suites run the consensus algorithms against
    {e every} schedule for [n <= 5]. *)

open Model

val points :
  model:Model_kind.t -> n:int -> victim:Pid.t -> Crash.point Seq.t
(** Every semantically distinct crash point for [victim]: [Before_send],
    [During_data s] for each subset [s] of the other processes,
    [After_data k] for [k] in [0 .. n-1] (extended model only) and
    [After_send]. *)

val events :
  model:Model_kind.t -> n:int -> max_round:int -> victim:Pid.t ->
  Crash.event Seq.t
(** Every (round, point) combination with round in [1 .. max_round]. *)

val schedules :
  model:Model_kind.t -> n:int -> max_f:int -> max_round:int -> Schedule.t Seq.t
(** Every schedule with at most [max_f] victims, lazily.  The failure-free
    schedule comes first. *)

val count : 'a Seq.t -> int
(** Length of a finite sequence (for reporting state-space sizes). *)

val point_count : model:Model_kind.t -> n:int -> int
(** Number of semantically distinct crash points per (victim, round):
    [2 + 2^(n-1)] in the classic model, [2 + 2^(n-1) + n] extended. *)

val space_size : model:Model_kind.t -> n:int -> max_f:int -> max_round:int -> int
(** Closed-form size of {!schedules} — [sum_(f=0)^(max_f) C(n,f) * e^f] with
    [e = max_round * point_count] — so sweeps can report coverage and
    reduction factors without materializing (or even walking) the space. *)

val weight : Schedule.t -> int
(** Well-founded shrinking measure: per crash event,
    [1 + round + point_weight] where [Before_send]/[After_send] weigh 0,
    [During_data s] weighs [|s|] and [After_data k] weighs [k].  Every
    element of {!reductions} is strictly lighter than its input, so greedy
    descent over reductions terminates. *)

val reductions : Schedule.t -> Schedule.t Seq.t
(** Every single-step simplification of a schedule, in a deterministic
    order (per binding in ascending pid order): drop the crash event
    entirely; lower its round by one (if [> 1]); remove one surviving
    destination from a [During_data] set (ascending pid order, toward the
    silent crash); shorten an [After_data] prefix by one (toward 0).
    Empty iff the schedule is failure-free.  The shrinker in
    {!Minimize.Shrink} descends this relation greedily; its fixpoint is
    1-minimal: no single reduction of the result still fails. *)

val shard : shards:int -> shard:int -> 'a Seq.t -> 'a Seq.t
(** [shard ~shards ~shard s] is the lazy residue-class slice of [s] holding
    the elements at indices congruent to [shard] modulo [shards].  The
    [shards] slices partition [s]; each re-walks the underlying generator,
    which must therefore be persistent (ours are).  Residue classes — rather
    than contiguous blocks — interleave cheap and expensive schedules, so a
    domain per shard stays busy even though verdict times are skewed.
    Raises [Invalid_argument] unless [0 <= shard < shards]. *)

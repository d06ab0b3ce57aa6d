(** Named crash-schedule constructors.

    Each strategy realizes one of the failure scenarios the paper reasons
    about; the experiment index in DESIGN.md says which experiment uses
    which. *)

open Model

type killer_style =
  | Silent
      (** Each doomed coordinator crashes before sending anything in its own
          round.  Starves information flow: nobody can decide before round
          [f + 1] — the tightness certificate for Theorem 4. *)
  | Greedy
      (** Each doomed coordinator completes its whole data step and delivers
          commit messages down to [p_{f+2}] before dying — the message
          maximum behind Theorem 2's worst case.  (Stopping one short of the
          paper's narrated [p_{f+1}] keeps [p_{f+1}] undecided so it still
          coordinates round [f+1]; letting the commit reach [p_{f+1}] would
          end the run with strictly fewer messages.) *)
  | Teasing of int
      (** [Teasing k]: each doomed coordinator delivers its data message to
          the [k] highest-id processes only and no commit — keeps estimates
          churning without ever releasing a commit. *)

val coordinator_killer :
  n:int -> f:int -> style:killer_style -> Schedule.t
(** Crash coordinators [p_1 .. p_f], process [p_i] in round [i], in the
    given style.  Requires [0 <= f < n].  This is the adversary of the
    paper's worst-case analyses: it maximizes rounds (Silent), bits (Greedy)
    or estimate churn (Teasing). *)

val random :
  rng:Prng.Rng.t ->
  model:Model_kind.t ->
  n:int ->
  f:int ->
  max_round:int ->
  Schedule.t
(** [f] uniformly chosen victims; for each, a uniform crash round in
    [1 .. max_round] and a uniform crash point (subset / prefix included).
    [After_data] points are only drawn under the extended model. *)

val random_f :
  rng:Prng.Rng.t ->
  model:Model_kind.t ->
  n:int ->
  t:int ->
  max_round:int ->
  Schedule.t
(** Like {!random} with [f] itself uniform in [0 .. t]. *)

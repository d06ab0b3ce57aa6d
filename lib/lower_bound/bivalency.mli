(** Valence analysis of configurations — the computational rendition of the
    Theorem 3 proof technique (Aguilera–Toueg bivalency, adapted to the
    extended model).

    A configuration is {e v-valent} if [v] is the only value decidable in
    its extensions, and {e bivalent} if at least two values remain
    reachable.  The lower-bound argument shows the adversary (crashing at
    most one process per round) can keep the configuration bivalent for [t]
    rounds, so no algorithm can always decide in [t] rounds.  This module
    computes exact reachable-decision sets over the deduplicated
    configuration graph of {!Stepper.Make.search}, for small systems. *)

type valence = Univalent of int | Bivalent of int list

type report = {
  n : int;
  t : int;
  initial_valence : valence;
  max_bivalent_depth : int;
      (** Deepest round end at which some reachable configuration (under the
          one-crash-per-round adversary) is still bivalent; [0] when the
          initial configuration is already univalent. *)
  bivalent_with_decision : bool;
      (** Whether any reachable bivalent configuration contains a decided
          process — must be [false] for a uniform consensus algorithm, since
          a decision in a bivalent configuration dooms agreement in some
          extension. *)
  configs_explored : int;
}

val pp_valence : Format.formatter -> valence -> unit

module Make (A : Algo_intf.S) : sig
  val reachable_values : Stepper.Make(A).config -> int list
  (** Every value decided in some extension of the configuration under the
      one-crash-per-round adversary, whose points are the distinct
      deliveries of the victim's planned sends (so a classic algorithm,
      which sends no syncs, meets the classic adversary). *)

  val analyze : n:int -> t:int -> proposals:int array -> report
  (** Settle the valence of every configuration reachable from the initial
      one, bottom-up.  Raises [Invalid_argument] unless [n >= 2] and
      [0 <= t < n] ({!Sync_sim.Engine.config}'s conditions). *)
end

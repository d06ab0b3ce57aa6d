(** Machine-checked evidence for the f+1 lower bound (Theorems 3–5).

    Two observable consequences of the lower bound are verified by search:

    - {e Tightness} (the bound is reached): for every [f <= t] the silent
      coordinator-killer forces the algorithm to round exactly [f + 1].
    - {e Impossibility of doing better}: forcing the algorithm to decide by
      round [R = f] (via {!Truncated}) yields uniform-agreement violations
      on some schedule with at most [f] crashes — found by an exhaustive
      search over configurations ({!Stepper.Make.search}), so the witness
      is a certificate, not a sample. *)

open Model

type witness = {
  schedule : Schedule.t;
  result : Sync_sim.Run_result.t;
  configs_searched : int;  (** configurations discovered, witness included *)
}

module Make (A : Algo_intf.S) : sig
  val tightness : n:int -> f:int -> proposals:int array -> int
  (** Run [A] against the silent killer with [f] victims and return the
      latest decision round, which must equal [f + 1].  Raises [Failure] if the run violates uniform
      consensus (that would mean the algorithm, not the bound, is broken). *)

  val truncation_violation :
    n:int -> decide_by:int -> proposals:int array -> witness option
  (** Search the configurations the [decide_by]-truncation of [A] reaches
      with at most [decide_by] crashes (any number per round) for one that
      violates uniform agreement or validity.  Its schedule is replayed on
      the engine to fill [result] ([Failure] if the replay does not
      violate).  [None]: the whole space holds no violation. *)

  val zero_round_impossible : proposals:int array -> bool
  (** The degenerate [f = 0] case of the bound: deciding with no
      communication at all (everyone returns its own proposal) violates
      agreement whenever two proposals differ. *)
end

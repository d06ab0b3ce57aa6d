(** The one search over the configurations of {!Sync_sim.Reference}: the
    valence argument of Theorem 3 and the "decide by round f" witnesses of
    Theorems 4–5 quantify over the adversary's next choice, one round at a
    time.  It lives outside [sync_sim] because it enumerates crash points
    through {!Adversary.Canonical}. *)

open Model

module Make (A : Algo_intf.S) : sig
  include module type of struct
    include Sync_sim.Reference.Make (A)
  end

  val fingerprint : config -> string
  (** Injective encoding of the round, every process's status — with its
      state while it is running, or decided and still active under
      [`Announce] — and the crashes spent; the search's dedup key.  The
      wire counters are left out. *)

  type node = private {
    id : int;  (** discovery index; [0] is the root *)
    config : config;
    parent : (node * crash list) option;  (** the first edge that reached it *)
    mutable succs : node list;  (** its distinct successors, if expanded *)
  }

  val search : per_round:int -> ?stop:(config -> bool) -> config -> node array
  (** Layered breadth-first search over fingerprint-deduplicated
      configurations.  A configuration with running processes and next round
      [<= t + 2] (the engine's horizon) is expanded into the failure-free
      round and every round crashing up to [per_round] active processes
      (within the remaining budget), each at one point per distinct delivery
      of the sends it plans ({!Adversary.Canonical.point_class}).  Returns
      the discovered nodes in discovery order, so successors come after
      their parents.  With [stop], the search ends at the first
      configuration satisfying it, which is then the last node. *)

  val schedule : node -> Schedule.t
  (** The crashes along the node's parent edges: replaying them from the
      root reaches its configuration. *)
end

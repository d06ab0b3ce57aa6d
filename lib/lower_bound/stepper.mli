(** Round-by-round stepping of a synchronous computation under explicit
    crashes, and the one search over the configurations it reaches.

    Where {!Sync_sim.Engine} runs a complete schedule, the stepper advances
    one round at a time — the shape the valence argument of Theorem 3 and
    the "decide by round f" witnesses of Theorems 4–5 need, where we
    quantify over the adversary's next choice.  Tests cross-validate it
    against the engine on every schedule of a small space, several crashes
    per round included. *)

open Model

module Make (A : Algo_intf.S) : sig
  type config
  (** An immutable global configuration: every process's local state and
      status, the upcoming round number and the crashes spent. *)

  type crash = Pid.t * Crash.point

  val initial : n:int -> t:int -> proposals:int array -> config
  (** Raises [Invalid_argument] unless [0 <= t < n] and there are [n]
      proposals. *)

  val next_round : config -> int
  val resilience : config -> int  (** the crash budget [t] *)

  val running : config -> Pid.t list
  (** Processes that are alive and undecided. *)

  val statuses : config -> Sync_sim.Run_result.status array
  val decided_values : config -> int list

  val step : config -> crashes:crash list -> config
  (** Execute one round in the extended model, crashing each listed process
      at its point ([[]]: a failure-free round).  Raises [Invalid_argument]
      if a victim is not running or listed twice, or the budget is
      exceeded. *)

  val fingerprint : config -> string
  (** Injective encoding of the configuration; the search's dedup key. *)

  type node = private {
    id : int;  (** discovery index; [0] is the root *)
    config : config;
    parent : (node * crash list) option;  (** the first edge that reached it *)
    mutable succs : node list;  (** its distinct successors, if expanded *)
  }

  val search : per_round:int -> ?stop:(config -> bool) -> config -> node array
  (** Layered breadth-first search over fingerprint-deduplicated
      configurations.  A configuration with running processes and next round
      [<= t + 2] (the engine's horizon) is expanded into the failure-free round and every round
      crashing up to [per_round] running processes (within the remaining
      budget), each at one point per distinct delivery of the sends it plans
      ({!Adversary.Canonical.point_class}).  Returns the discovered nodes in
      discovery order, so successors come after their parents.  With [stop],
      the search ends at the first configuration satisfying it, which is
      then the last node. *)

  val schedule : node -> Schedule.t
  (** The crashes along the node's parent edges: replaying them from the
      root reaches its configuration. *)
end

(** The outcome of a serve storm: throughput, latency percentiles,
    per-node event-loop stats, and — the part that keeps the perf layer
    honest — a per-instance verdict from the existing {!Live.Judge}.

    Every instance is judged as its own consensus run: the decisions each
    node reported become a {!Live.Transcript.t}, a victim's realized crash
    point becomes a scripted kill (instances the victim never activated
    count as killed before any round-1 write), and the differential
    comparison against the abstract engine runs under that realized
    schedule.  [ok] means every judged instance passed. *)

open Model

type kill_spec = { node : int; after_frames : int }

type instance_verdict = {
  instance : int;
  verdict : Live.Judge.verdict;
  transcript : Live.Transcript.t;
}

type latency = { p50 : float; p90 : float; p99 : float; max : float }

type t = {
  n : int;
  t : int;
  instances : int;
  completed : int;  (** instances every live node decided *)
  undecided : int;
  elapsed : float;  (** wall seconds over the whole storm *)
  decisions_per_sec : float;
  latency : latency option;  (** per-instance submit-to-settle latency *)
  stats : (int * Stats.t) list;
  total : Stats.t;
  kill : kill_spec option;
  victim : (int * Mux.realized list) option;
      (** the node that halted at its kill budget and the crash points
          its instances realized, as judged *)
  judged : int;
  failures : instance_verdict list;
  ok : bool;
}

val build :
  n:int ->
  t:int ->
  proposals:(int -> int -> int) ->
  decisions:(int * int) option array array ->
  victim:(int * Mux.realized list) option ->
  send_plan:(n:int -> me:Pid.t -> round:int -> Pid.t list * Pid.t list) ->
  elapsed:float ->
  latencies:float list ->
  stats:(int * Stats.t) list ->
  kill:kill_spec option ->
  t
(** [proposals instance node] is the proposal node [node] submitted for
    [instance]; [decisions.(instance).(node-1)] the (value, round) that
    node reported, if any. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0..1]; the array must be sorted. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

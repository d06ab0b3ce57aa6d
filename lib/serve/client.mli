(** The serve front-end: one process driving a whole storm through the
    engines' client channels.

    Connects to every node (Hello node 0), keeps [window] instances in
    flight with coalesced Submit bursts, collects Decide frames, and
    settles an instance the moment its live-node missing-count reaches
    zero — settlement is O(1) per Decide (no per-tick rescans), and the
    window refills immediately, so the Submit stream is pipelined rather
    than tick-quantized.  A node that dies (the kill victim) stops
    blocking settlement the moment its socket closes, exactly the
    judgment rule {!Report} uses.

    The readiness wait ({!Evloop}) is derived from the wall deadline,
    not a fixed 50 ms tick: a storm's p50 latency reflects the mesh, not
    the client's polling interval.  Only a caller that passes [on_idle]
    (the fleet pumps engine status pipes and catches the victim's
    SIGSTOP there) gets a 50 ms cap on the sleep.

    The load is either a fixed count of instances, or an unbounded
    stream ({!Until}) that keeps the window full until a wall time and
    then drains what is in flight — the soak driver ({!Soak}) is this
    loop in stream mode.  A stream keeps no per-instance state once an
    instance settles: each settled instance is handed to [on_settle]
    with its settle time and per-node row, and the outcome's
    [decisions] and [latencies] stay empty.

    With [reconnect], a dead socket is re-dialed under a bounded
    jittered backoff ({!Live.Sockets.retry_wait}); on success the client
    re-Hellos, swaps in a fresh decoder, and counts the node live again
    for every instance it submits from then on.  The instances already
    in flight are not resubmitted to it, and its Decides for them are
    not taken as its answers: a revived engine would run an undecided
    instance from round 1, behind the rest of the mesh, and could decide
    a value the others did not; for a decided one it would report the
    decision it adopted from its peers, which {!Report} would judge as
    its own.  For those instances the node stays crashed, as the crash
    model has it.  A revived engine that has not caught up with its peers
    closes the connection unread; the client re-dials it under the same
    backoff, and counts the re-dial in [reconnects] only once the engine
    answers on it.  So a node counts live again only for instances that
    start on every node at once. *)

type load =
  | Count of int  (** instances [first .. first+k-1], then stop *)
  | Until of float
      (** an unbounded stream: submit until this wall time
          ({!Live.Sockets.now}), then drain the instances in flight *)

type config = {
  n : int;
  transport : [ `Unix of string | `Tcp of int ];
  first : int;  (** first instance id to submit *)
  load : load;
  window : int;
  proposals : int -> int -> int;  (** instance -> node -> proposal *)
  timeout : float;  (** overall wall-clock budget, seconds *)
  reconnect : bool;  (** re-dial dead engines with jittered backoff *)
}

type settled = {
  instance : int;  (** absolute instance id *)
  submitted : float;  (** wall time of the first Submit *)
  at : float;  (** wall time of settlement *)
  row : (int * int) option array;
      (** [row.(node-1)] = (value, round) the node answered, first report
          wins; [None] for a node that was down when the instance was
          submitted or died before answering *)
}

type outcome = {
  decisions : (int * int) option array array;
      (** [decisions.(i - first)] is instance [i]'s row, as in
          {!settled}; empty for a stream *)
  latencies : float list;
      (** submit-to-settle, settled instances only; empty for a stream *)
  elapsed : float;  (** first submit to loop exit *)
  undecided : int list;  (** absolute instance ids that never settled *)
  dead_nodes : int list;
      (** nodes down when the run closed — with [reconnect], the ones
          that never came back *)
  reconnects : int;
      (** re-dials of dead engines that answered: a rejoining engine
          refuses a client until it has caught up, so a dial it closed
          unread does not count *)
}

val run :
  ?on_idle:(unit -> unit) ->
  ?on_settle:(settled -> unit) ->
  config ->
  (outcome, string) result
(** [on_idle] runs once per loop iteration, at least every 50 ms;
    [on_settle] runs once per settled instance, the moment it settles.
    An instance still in flight when the run closes (wall deadline, or no
    node left to wait for) is listed in [undecided] and never settled. *)

(** The sweep worker: lease a shard, check it, stream the result back.

    A worker owns no durable state.  It connects (with bounded-backoff
    retry), learns the {!Protocol.job}, then loops: request a lease, fold
    the granted residue-class slice of {!Minimize.Algo.space} through
    {!Minimize.Algo.verdict}, send the {!Protocol.shard_result}, await the
    ack.  Heartbeats flow while a shard runs so the coordinator can tell a
    slow shard from a dead worker.

    Crash safety is reconnect-and-replay: any socket failure (including a
    coordinator that was SIGKILL'd and restarted) sends the worker back to
    the connect loop, where it keeps retrying until [patience] runs out;
    after reconnecting it first replays every result the coordinator never
    acknowledged — the coordinator deduplicates by shard id, so replays are
    safe — and only then asks for new work.

    The {!chaos} hooks make the failure paths deterministic for tests and
    CI: a chaotic worker [_exit]s mid-protocol exactly where told to, and
    the rest of the fleet must absorb it. *)

type chaos = {
  die_on_grant : int option;
      (** [Some k]: [_exit] upon receiving the [k]-th grant, holding the
          lease — the coordinator must time it out and re-grant *)
  die_after_schedules : int option;
      (** [Some k]: [_exit] after checking [k] schedules in total, i.e. in
          the middle of a shard *)
}

val no_chaos : chaos

val chaos_exit_code : int
(** Exit code of a scripted chaos death (17), so reapers can tell scripted
    deaths from genuine failures. *)

val name_of_pid : int -> string
(** The name a worker process with this pid says hello with. *)

val run :
  ?patience:float ->
  ?chaos:chaos ->
  ?verbose:bool ->
  addr:Unix.sockaddr ->
  unit ->
  (int, string) result
(** Serve until the coordinator says [Done]; [Ok shards_completed].
    [patience] (default 30 s) bounds each disconnected spell: a worker that
    cannot (re)connect within it gives up with [Error].  Also [Error] for a
    job naming an unknown algorithm. *)

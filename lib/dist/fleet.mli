(** Local fleets: the coordinator plus forked worker processes.

    The distributed checker's smoke lane (tests, CI, [bin check --serve
    --spawn]) runs everything on one machine: the coordinator in-process,
    each worker as a forked child talking over the same socket a remote
    worker would use.  The chaos plumbing rides along — a scripted worker
    can [_exit] mid-shard and the rest of the fleet must finish the sweep
    anyway. *)

val spawn_worker :
  ?patience:float ->
  ?chaos:Worker.chaos ->
  ?verbose:bool ->
  addr:Unix.sockaddr ->
  unit ->
  int
(** Fork one worker process; returns its pid.  The child never returns: it
    runs {!Worker.run} and [_exit]s 0 on [Ok], {!failed_exit_code} on
    [Error] (chaos deaths use {!Worker.chaos}'s own code). *)

val failed_exit_code : int

val auto_shards : ?straggler:int -> workers:int -> unit -> int
(** Shard count for a fleet of [workers]: [workers * straggler] (default
    straggler factor 8, minimum one worker).  Oversharding by the straggler
    factor keeps the tail short — when one worker lags or dies, the others
    absorb its remaining shards in small pieces instead of one half-space
    lease. *)

type outcome = {
  report : Coordinator.report;
  worker_failures : int;
      (** children that exited nonzero, scripted chaos deaths excluded *)
  chaos_deaths : int;  (** children that died at a scripted chaos point *)
}

val run_local :
  ?lease_timeout:float ->
  ?checkpoint:string ->
  ?verbose:bool ->
  ?kill_one_after:int ->
  workers:int ->
  addr:Unix.sockaddr ->
  Protocol.job ->
  (outcome, string) result
(** Serve [job] on [addr] with [workers] forked local workers, reaping every
    child before returning.  [kill_one_after k] arms worker 0 with
    [die_after_schedules = k] and makes it the coordinator's [lead]: it
    alone is granted shards until it drops dead mid-shard, so the death is
    certain whenever the sweep has more than [k] schedules.  Its lease is
    revoked and the survivors absorb the work — the sweep must still
    complete, which is exactly what the CI smoke asserts.  With
    [workers = 1] and a kill, the fleet spawns one replacement worker so the
    sweep can still finish. *)

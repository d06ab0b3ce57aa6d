(** The sweep coordinator: shard dispatch with leases, dedup and resume.

    One select loop, no threads: accept workers, answer [Hello] with the
    job, grant shard leases, absorb heartbeats, accept results.  The fault
    model is "anything dies at any time":

    - {b Worker death / straggler.}  A lease whose holder stops sending
      (no heartbeat, no result) for [lease_timeout] is revoked and the
      shard goes back in the grant queue ([regrants] counts these); a
      disconnect revokes immediately.  If the original worker was merely
      slow and later delivers the shard anyway, first writer wins and the
      late copy is acknowledged but dropped ([duplicates]).
    - {b Coordinator death.}  Every accepted result is folded into the
      checkpoint file before it is acknowledged (atomic fsync'd rename,
      {!Checkpoint.save}), so a SIGKILL'd coordinator restarted on the same
      checkpoint re-grants only unfinished shards; the [resumed] ids in the
      report are exactly the shards that were {e not} re-executed.

    Completion: when every shard is recorded, [Done] is broadcast, late
    requests keep getting [Done], and [serve] returns after a short linger
    so workers can hear it. *)

type config = {
  job : Protocol.job;
  addr : Unix.sockaddr;
  lease_timeout : float;  (** revoke a silent lease after this many seconds *)
  checkpoint : string option;  (** durable resume state; [None] = none *)
  linger : float;  (** how long to keep answering [Done] after completion *)
  min_workers : int;
      (** hold every grant until this many workers have said hello — keeps
          a fast first arrival from swallowing a small sweep whole before
          the rest of a spawned fleet connects *)
  lead : string option;
      (** [Some name]: grant shards only to the worker that says hello as
          [name] until it disconnects; everyone else waits.  A local fleet
          leads with its chaotic worker, so the scripted death always comes
          before the healthy workers can finish the sweep without it *)
  verbose : bool;
}

val config :
  ?lease_timeout:float ->
  ?checkpoint:string ->
  ?linger:float ->
  ?min_workers:int ->
  ?lead:string ->
  ?verbose:bool ->
  addr:Unix.sockaddr ->
  Protocol.job ->
  config
(** Defaults: [lease_timeout] 5 s, [linger] 0.5 s, [min_workers] 0, no
    [lead]. *)

type report = {
  classes : int;  (** total schedules (symmetry classes) checked *)
  violations : Protocol.violation list;
      (** deduplicated, in {!Adversary.Canonical.compare} order; may be
          capped per shard — [violations_total] is exact *)
  violations_total : int;
  shards_total : int;
  executed : int list;  (** shard ids computed during this serve *)
  resumed : int list;  (** shard ids restored from the checkpoint *)
  regrants : int;  (** leases revoked (timeout or disconnect) and re-queued *)
  duplicates : int;  (** late results dropped by first-writer-wins *)
}

val report_to_json : report -> Obs.Json.t

val serve : config -> (report, string) result
(** [Error] only before the sweep is underway: unbindable address, a
    checkpoint that does not load, or one recorded for a different job.
    Worker chaos is data, never an error. *)

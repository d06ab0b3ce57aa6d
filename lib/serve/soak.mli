(** Sustained-load soak driver: run a real fleet for a wall-clock
    duration, stream an unbounded sequence of instances through it, and
    report time-bucketed latency percentiles — the view that catches
    degradation over time (queue growth, allocator drift, fd leaks)
    which a fixed-instance storm's single aggregate hides.

    The soak {e is} a {!Client} run inside {!Fleet.with_mesh}: the
    client in stream mode ({!Client.Until}) keeps [cfg.window] instances
    in flight until [duration] has passed, then drains.  The soak adds
    only what it observes: each settled instance files its
    submit-to-settle latency into the bucket its settle time falls in,
    and its per-node row is checked for agreement — two nodes reporting
    different values is a disagreement, and fails {!ok}.  So does any
    instance still in flight when the drain grace ends: a fleet that
    stops settling is not healthy, however well it agreed before.

    With [kill_every] (requires the fleet's respawn policy), the fleet's
    [on_idle] hook is wrapped by a round-robin SIGKILL schedule: the
    fleet respawns each victim through the WAL-replay / catch-up path
    and the client re-dials it exactly as it does for any storm
    (re-Hello, a fresh decoder, counted live again for the instances
    submitted after the re-dial).  The bucketed percentiles then show
    the recovery dips, and {!ok} still demands zero disagreements
    across every kill. *)

type bucket = {
  since : float;  (** bucket start, seconds from soak start *)
  count : int;  (** instances settled in this bucket *)
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  duration : float;  (** requested soak length, seconds *)
  bucket_width : float;
  elapsed : float;  (** actual wall time incl. the drain grace *)
  settled : int;
  disagreements : int;
  undrained : int;  (** instances still in flight when the soak closed *)
  decisions_per_sec : float;  (** settled / elapsed *)
  kills : int;  (** scheduled SIGKILLs delivered ([kill_every]) *)
  reconnects : int;  (** successful re-dials of respawned engines *)
  buckets : bucket list;  (** ascending by [since]; empty buckets omitted *)
  ok : bool;  (** no disagreements, and nothing left undrained *)
}

val run :
  ?kill_every:float ->
  Fleet.config ->
  duration:float ->
  bucket:float ->
  (t, string) result
(** Drives [cfg.window]-wide load over the fleet for [duration] seconds
    (ignoring [cfg.instances] — the stream is unbounded), then allows a
    short drain grace for in-flight instances.  [bucket] is the
    histogram bucket width in seconds.  [kill_every] schedules a
    round-robin engine SIGKILL every that many seconds; it requires
    [cfg.respawn]. *)

val to_json : t -> Obs.Json.t
val pp : Format.formatter -> t -> unit

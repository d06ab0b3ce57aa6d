(** The self-healing supervisor: spawns one OS process per node, injects
    the scripted kills for real, and turns whatever survives into a judged
    transcript.

    Lifecycle:

    + fork the fleet through {!Children} (one [Node] process each, with a
      status pipe back to the supervisor, a go pipe forward, and a
      per-node log file);
    + wait for every node's [ready] — a node that dies during startup is
      respawned with exponential backoff, up to [respawn_budget] times (the
      self-healing window: before the mesh forms, a fresh process can still
      take its place); exhausting the budget or the readiness timeout
      aborts the run.  The window heals a node that died before any peer
      connected to it.  A node that dies after a peer connected to it is
      not healed by a single-node respawn: that peer's handshake is done
      and it never dials the replacement, so the run hits the readiness
      timeout;
    + broadcast [go t0], the common round-clock origin;
    + collect events, watching children with {!Children.reap}: a
      SIGSTOP is a node at its scripted crash point, answered with a real
      [SIGKILL]; an unexpected death is absorbed as one more (unscripted)
      crash and the run continues; a watchdog kills stragglers past the
      round horizon;
    + always reap and kill every child and remove the socket files, then
      judge the transcript ({!Judge.judge}, with the differential schedule
      from {!Script.to_schedule}).

    Every self-healing action is also emitted as an {!event} through the
    configured {!Obs.Instrument} sink, so soaks can count respawns and
    absorptions instead of grepping logs.

    Runs the paper's Figure 1 algorithm ({!Binding.Rwwc}). *)

type event =
  | Respawned of { node : int; attempt : int }
      (** a node that died before the mesh formed was replaced by a fresh
          process; [attempt] counts from 1 up to the respawn budget *)
  | Absorbed of { node : int; at_round : int }
      (** an unscripted post-mesh death was absorbed as one more crash and
          the run continued *)

val pp_event : Format.formatter -> event -> unit

type transport =
  [ `Unix of string  (** workspace dir: sockets, logs *)
  | `Tcp of string * int  (** workspace dir for logs, TCP port base *) ]

type config = {
  n : int;
  t : int;
  script : Script.t;
  transport : transport;
  big_d : float;
  delta : float;
  proposals : int array option;  (** default: distinct proposals 1..n *)
  max_rounds : int option;  (** default: [t + 2] *)
  verbose : bool;  (** progress lines on stderr *)
  respawn_budget : int;
      (** startup respawns allowed per node (default 1 — the historical
          respawn-once window) *)
  respawn_backoff : float;
      (** base respawn delay in seconds, doubling per attempt (default
          0.05) *)
  instrument : event Obs.Instrument.t;
      (** sink for {!event}s (default {!Obs.Instrument.null}) *)
  chaos_startup_kills : int list;
      (** fault injection for soaks: each listed node's next (re)spawn is
          chosen at launch to die, and that process SIGKILLs itself before
          it listens or dials — listing a node twice kills its replacement
          too.  Default []. *)
  chaos_run_kills : (int * float) list;
      (** fault injection for soaks: node [i] is SIGKILLed [delay] seconds
          after [t0] — an unscripted death the run must absorb.
          Default []. *)
}

val config :
  ?proposals:int array ->
  ?max_rounds:int ->
  ?verbose:bool ->
  ?respawn_budget:int ->
  ?respawn_backoff:float ->
  ?instrument:event Obs.Instrument.t ->
  ?chaos_startup_kills:int list ->
  ?chaos_run_kills:(int * float) list ->
  n:int ->
  t:int ->
  script:Script.t ->
  transport:transport ->
  big_d:float ->
  delta:float ->
  unit ->
  config

val workspace : config -> string
(** The directory holding node logs (and Unix-domain sockets). *)

val run : config -> (Transcript.t * Judge.verdict, string) result
(** [Error] only for runs that never got going (invalid script, startup
    failure, respawn budget exhausted); once the fleet is running,
    crashes — scripted or not — are data, not errors. *)

(** Forked child processes: the one place this codebase forks, pipes, reaps
    and respawns.

    {!Supervisor}, [Serve.Fleet], [Dist.Fleet], the chaos proxy and the
    distributed-checker experiment all run their processes through this
    module and keep only their policy (what an event means, which deaths are
    respawned).

    - {!fork} runs a body in a fresh process and never lets it return into
      the parent's code: the body's result is the exit code, an escaping
      exception is a [fatal: …] line and exit 3.
    - {!spawn} adds a status pipe: the child writes one JSON object per line,
      the parent reads them with {!pump}.  The child closes every fd the
      parent holds in the set (status pipes of siblings and any fd the
      caller {!register}s), so a status pipe's EOF means "this process is
      gone", not "some sibling still holds a copy".
    - {!reap} polls with a non-blocking [waitpid] that also reports
      stopped children.  A stopped child is a process at its scripted crash
      point ({!stop_for_kill} at an exact write position); it is
      answered with the real [SIGKILL] and reported as [`Stop_killed].
    - Respawn bookkeeping: a per-child attempt count, a delay of
      [base * 2^k] while attempts remain in the budget, where [k] counts
      the respawns since the child last reported {!ready}, and a due
      time; {!respawn} replaces the process inside the same {!child}.
    - {!teardown} kills and reaps every survivor, closes every parent-side
      fd and unlinks the node sockets. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents ([0o755]). *)

type exit_obs = [ `Exited of int | `Signaled of int | `Stop_killed ]

val fork : ?log:string -> (unit -> int) -> int
(** [fork body] returns the child's pid in the parent.  The child runs
    [body ()] and [_exit]s with its result; an exception escaping [body]
    appends [fatal: <exn>] to the file [log] (stderr without one) and exits
    3. *)

val wait : int -> exit_obs
(** Blocking reap of one pid, [EINTR]-proof.  A pid that is not (or no
    longer) a child reads as [`Exited 0]. *)

(** A set of children plus every parent-side fd that must not leak into
    them. *)
type t

type child = private {
  id : int;  (** the caller's name for it, e.g. a node id *)
  mutable pid : int;
  mutable status : Unix.file_descr option;  (** [None] once EOF is seen *)
  lines : Buffer.t;  (** status bytes not yet ended by a newline *)
  mutable exit : exit_obs option;  (** [None] while not yet reaped *)
  mutable respawns : int;  (** respawn attempts consumed *)
  mutable streak : int;  (** respawns since the last {!ready} *)
  mutable due : float option;  (** a scheduled respawn's due time *)
}

val create : unit -> t

val register : t -> Unix.file_descr -> unit
(** Hold an extra parent-side fd: every later {!spawn} closes it in the
    child, and {!teardown} closes it in the parent. *)

val release : t -> Unix.file_descr -> unit
(** Close a held fd now (it is forgotten first, so a recycled descriptor
    number is never closed twice). *)

val spawn : t -> ?log:string -> id:int -> (Unix.file_descr -> int) -> child
(** {!fork} with a status pipe: the body receives the pipe's write end. *)

val adopt : t -> int -> unit
(** Own a process forked elsewhere (no status pipe, id 0), so {!teardown}
    kills and reaps it. *)

val respawn : t -> ?log:string -> child -> (Unix.file_descr -> int) -> unit
(** Replace a reaped child's process: the old status pipe is closed and its
    unfinished line dropped, a new process is spawned, the attempt count
    goes up by one and the due time is cleared. *)

val close_status : t -> child -> unit
(** Stop listening to a child: close its status pipe without waiting for
    EOF. *)

val status_event : out_channel -> (string * Obs.Json.t) list -> unit
(** The child side of a status pipe: write one JSON object as one line and
    flush, so {!pump} sees it at once. *)

val logf : out_channel -> me:int -> ('a, unit, string, unit) format4 -> 'a
(** One timestamped [[<time> p<me>] …] line to a node's log, flushed (a
    killed process loses nothing it logged). *)

val pump : t -> timeout:float -> on_event:(child -> Obs.Json.t -> unit) -> unit
(** One [select] (up to [timeout] seconds; a plain sleep when no status pipe
    is open) over every open status pipe, then one read from each ready
    one.  Complete lines are parsed and passed to [on_event] in order;
    malformed lines are skipped; an EOF closes the pipe. *)

val reap : child -> exit_obs option
(** Non-blocking: [Some] the first time the child is seen dead (a stopped
    child is SIGKILLed and reaped first), [None] while it runs or once it
    has been reported. *)

val stop_for_kill : unit -> 'a
(** The child side of {!reap}'s stop-then-kill, for the live node and
    the serve engine: [SIGSTOP] self, then sleep until the parent's
    [SIGKILL].  Never returns. *)

val kill : child -> bool
(** SIGKILL a child not yet reaped; whether a signal was sent. *)

val respawn_delay :
  budget:int -> base:float -> streak:int -> int -> float option
(** The wait before the next respawn after [k] attempts, [streak] of
    them since the child was last healthy: [Some (base * 2^streak)]
    while [k < budget], [None] once the budget is spent. *)

val ready : child -> unit
(** The child reported itself healthy: its next respawn waits [base]
    again.  The budget still counts every attempt. *)

val schedule_respawn : child -> budget:int -> base:float -> float option
(** Set the child's due time from {!respawn_delay}; the delay, or [None]
    when the budget is spent (nothing is scheduled). *)

val respawn_due : child -> bool
(** A respawn is scheduled and its due time has passed. *)

val teardown :
  ?sockets:[ `Unix of string | `Tcp of int ] * int -> t -> unit
(** SIGKILL and reap every child not yet reaped, close every parent-side fd
    of the set, and with [sockets = (transport, n)] unlink the
    {!Sockets.addr_of} paths of nodes [1..n]. *)

(** Crash schedules: the adversary's full plan for a run.

    A schedule maps each faulty process to the single crash event it suffers
    (crashes are permanent, so one event per process).  [f], the paper's
    "actual number of crashes in the run", is the schedule's cardinality. *)

type t
(** An immutable crash schedule. *)

val empty : t
(** The failure-free schedule ([f = 0]). *)

val of_list : (Pid.t * Crash.event) list -> t
(** Build a schedule.  Raises [Invalid_argument] if a process appears
    twice. *)

val add : Pid.t -> Crash.event -> t -> t
(** Add one crash.  Raises [Invalid_argument] if the process already has
    one. *)

val find : t -> Pid.t -> Crash.event option
(** The crash event of a process, if it is faulty. *)

val iter : (Pid.t -> Crash.event -> unit) -> t -> unit
(** Apply to every crash, in increasing pid order.  Allocation-free — the
    engine uses it to flatten the crash plan into its scratch arrays. *)

val f : t -> int
(** Number of faulty processes. *)

val faulty : t -> Pid.Set.t
(** The set of processes that crash at some point in the run. *)

val bindings : t -> (Pid.t * Crash.event) list
(** All crashes, in increasing pid order. *)

val max_crash_round : t -> int
(** Largest round in which a crash occurs; [0] for the empty schedule. *)

val validate :
  model:Model_kind.t -> n:int -> t:int -> t -> (unit, string) result
(** Check that the schedule is executable in the given system: every faulty
    pid is within [1..n], [f <= t], and each crash point is allowed by the
    model kind. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

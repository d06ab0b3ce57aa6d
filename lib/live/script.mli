(** Scripted process kills for the live runtime.

    A kill names a victim, a round, and a position inside the round's send
    phase, counted in completed {e writes} — the natural coordinate on a
    real wire, where the two send steps of the extended model are one
    sequence of sequential writes (data first, then ordered control).
    Killing a process after [k] writes therefore yields exactly the crash
    semantics of Section 2: an order-prefix of the data destinations, or
    all data plus a prefix of the control sequence.

    Concrete syntax (one kill per victim):
    {v
      p3@r2:before      killed before any round-2 write
      p1@r1:data=2      killed after 2 data writes of round 1
      p2@r2:ctl=1       killed after all data and 1 control write
      p4@r3:after       killed after the full send phase, before computing
    v} *)

open Model

type phase =
  | Before_send
  | During_data of int  (** completed data writes *)
  | During_ctl of int  (** all data writes plus this many control writes *)
  | After_send

type kill = { pid : Pid.t; round : int; phase : phase }

type t = kill list

val parse_kill : string -> (kill, string) result
val phase_to_string : phase -> string
val kill_to_string : kill -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val find : t -> Pid.t -> kill option
(** The victim's kill, if scripted. *)

val validate : n:int -> max_kills:int -> t -> (unit, string) result
(** Pids in range, rounds positive, at most one kill per victim, at most
    [max_kills] kills in total. *)

val writes_completed : phase -> data:int -> ctl:int -> int
(** How many of the round's [data + ctl] sequential writes complete before
    the victim stops, clamped to the actual send counts. *)

val phase_of_writes : int -> data:int -> ctl:int -> phase
(** The inverse of {!writes_completed}: the phase of a victim cut after
    [k] of the round's [data + ctl] writes.  Once every data write is
    done the phase is [During_ctl], so [k = data] is [During_ctl 0];
    [k >= data + ctl] is [After_send]. *)

val default : n:int -> f:int -> t
(** The canonical f-kill script used by [bin live --f]: coordinators
    [p_1 .. p_f] die in their own rounds, alternating mid-data-step and
    mid-control-step kills (each after half the writes of that step) — the
    acceptance scenario of the live runtime. *)

val to_schedule :
  send_plan:(me:Pid.t -> round:int -> Pid.t list * Pid.t list) ->
  t ->
  Schedule.t
(** The abstract crash schedule a faithfully executed script realizes,
    for differential judging against {!Sync_sim.Engine}: [During_data k]
    becomes {!Model.Crash.During_data} of the first [k] planned data
    destinations, [During_ctl k] becomes {!Model.Crash.After_data}[ k]. *)

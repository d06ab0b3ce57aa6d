(** The mux's table of finished instances: one packed 8-byte cell per
    instance, in chunks of {!chunk_size} consecutive ids.

    A cell is unfinished, gave up (released at the round horizon without a
    decision), or decided with its (value, round).  Chunks are found
    through a fixed two-level directory over the whole id space up to
    {!Live.Frame.max_instance}, so the table grows one chunk (and at most
    one directory page) at a time and never rehashes: no insert costs more
    than that, whatever the id and however many decisions came before.

    {b Spilling.}  A table created with [~spill:true] sits in front of a
    durable log.  A chunk becomes {e complete} once every instance in it
    is decided; {!spill}, which the owner calls after a log commit
    returns, drops the cells of every chunk that was complete at that
    point, so the log answers for them from then on ({!status} reports
    [Spilled]).  A chunk holding a gave-up instance never completes — a
    later peer decision may still upgrade the instance.  Without [spill]
    every chunk stays resident. *)

type t

val chunk_size : int
(** Instances per chunk: 4096. *)

val max_round : int
(** Largest round a cell can hold ([2^30 - 1]); values are 32-bit, as on
    the wire. *)

val create : spill:bool -> unit -> t

type status =
  | Unfinished
  | Gave_up
  | Decided of int * int  (** value, round *)
  | Spilled  (** decided; its chunk was dropped, the log has it *)

val status : t -> int -> status

val finished : t -> int -> bool
(** Decided, gave up or spilled.  Allocation-free: the per-frame check. *)

val is_decided : t -> int -> bool
(** Decided or spilled. *)

val decide : t -> int -> value:int -> round:int -> unit
(** Record a decision, upgrading a gave-up instance.  [Invalid_argument]
    if the instance is already decided, or [value]/[round] do not fit. *)

val give_up : t -> int -> unit
(** Mark an unfinished instance released without a decision; a no-op on a
    finished one. *)

val count : t -> int
(** Decisions recorded, spilled ones included. *)

val iter : t -> (instance:int -> value:int -> round:int -> unit) -> unit
(** Resident decisions, in instance order; spilled ones are not visited. *)

val spill : t -> unit
(** Drop every complete chunk's cells (a no-op without [~spill:true]).
    Call only once every decision recorded so far is durable. *)

val resident_chunks : t -> int
val spilled_chunks : t -> int

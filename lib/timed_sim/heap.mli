(** Binary min-heap keyed by [(time, rank, seq)].

    The event queue of the timed simulator.  Ties on [time] break first on
    the caller-supplied [rank] (the engine ranks messages before failure
    detector updates before timers, so "arrives by time T" beats "acts at
    time T") and then on insertion order — the simulation is deterministic
    given its inputs. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:float -> rank:int -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum element. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

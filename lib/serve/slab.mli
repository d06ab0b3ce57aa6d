(** A slab/free-list of per-instance state keyed by instance id.

    Flat-engine style: a finished instance's slot goes on a free list and
    the next instance takes it back as it was left — the caller resets
    its fields — so sustained storms allocate per {e concurrent} instance
    (the client window), never per decision.  The id-to-slot index is an
    open-addressing table of ints, so binding, finding and releasing an
    instance allocate nothing once the slab has grown to the window.
    [capacity] is the high-water mark of slots ever allocated and
    [reused] counts recycles; the slab test pins capacity to the window
    while instances run into the thousands.

    Iteration is in slot order (allocation order of the underlying array),
    which is deterministic for a deterministic operation sequence — the
    loopback engine relies on this. *)

type 'a t

val create : ?initial:int -> make:(unit -> 'a) -> unit -> 'a t
(** [make] builds a fresh slot when no freed one is left. *)

val acquire : 'a t -> instance:int -> 'a
(** Bind [instance] to a slot: a freed one, exactly as its last instance
    left it, or a fresh one from [make].  Raises [Invalid_argument] if the
    instance is already active. *)

val find : 'a t -> instance:int -> default:'a -> 'a
(** The slot bound to [instance], or [default] when none is. *)

val release : 'a t -> instance:int -> unit

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Active slots only, in slot order. *)

val active : 'a t -> int
val capacity : 'a t -> int
val reused : 'a t -> int

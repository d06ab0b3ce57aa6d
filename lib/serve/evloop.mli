(** Readiness multiplexing for the serve event loop.

    One registry of fd interest (read, write, or both) waited on with
    [poll(2)] through a small C stub.  poll has no [FD_SETSIZE] (1024)
    cliff, so a node's client count is bounded by its fd limit, not by
    the readiness call.  Readiness is reported only for the directions a
    fd is registered for — a hung-up fd with write interest only is
    writable, never readable.

    [wait] snapshots the registry before blocking, so a callback may
    freely register or deregister fds (accepting a connection, marking a
    peer dead) without invalidating the iteration. *)

type backend = Poll
(** The one readiness backend; kept as a type so existing
    [create ~backend:Poll] call sites keep compiling. *)

type t

val create : ?backend:backend -> unit -> t

val register : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Set (or update) the interest for a fd.  [read:false ~write:false]
    keeps the fd registered with no interest — use {!deregister} to
    drop it. *)

val deregister : t -> Unix.file_descr -> unit
(** Forget a fd.  Safe to call for a fd that was never registered. *)

val registered : t -> int

val wait :
  t ->
  timeout:float ->
  handle:(Unix.file_descr -> readable:bool -> writable:bool -> unit) ->
  int
(** Block up to [timeout] seconds (negative means zero) for readiness and
    invoke [handle] once per ready fd; returns the number of ready fds.
    [EINTR] returns 0, like a timeout.  Callbacks may mutate the
    registry; readiness is reported from the pre-wait snapshot, so a
    callback must tolerate events for fds it has just dropped. *)

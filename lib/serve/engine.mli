(** The per-node serve event loop (DESIGN.md §15–16): one
    single-threaded [poll(2)] loop ({!Evloop}) over the socket mesh, every
    connected client and the mux's round deadlines, in which {b no socket
    syscall can block}.  Reads are nonblocking and feed incremental frame
    decoders into the {!Mux}.  Writes never touch a socket directly:
    {!Batch.flush} hands coalesced buffers to per-destination {!Outq}
    queues, and one pass at the end of each turn drains them as far as
    the kernel takes.  A destination whose backlog crosses the high-water
    mark is dropped; a new connection parks in a deadlined pending-hello
    state; clients are served under a per-client frame budget with a
    rotating start.

    {b Durability before visibility.}  With [wal_dir] set, the mux stages
    each decision ({!Wal.add}); the turn commits them with one write and
    one fsync ({!Wal.commit}) before the drain pass, the only place a
    turn's frames reach a socket.  A fresh engine starts a new log,
    replacing any it finds.  A respawned engine sets [rejoin]: it replays
    its log (a rejected one degrades to a fresh join), dials every peer and holds client Submits until each reached peer has
    pushed its decision log as a Catchup batch.  Any engine answers a
    post-startup mesh Hello that way, then mirrors new decisions to the
    rejoined peer for a round horizon.

    {b Kills.}  A [kill_after] budget halts the mux mid-send; the engine
    delivers the allowed prefix and reports the realized per-instance
    crash points.  Without [linger], it exits once the last client has
    gone and no instance is active.

    {b One loop, two drivers.}  {!main} is the socket handshake followed
    by {!step} in a loop.  {!create} builds the same engine over fds that
    are already connected, on a caller's clock, so [Serve.Loopback] runs
    n engines over [socketpair] links on a virtual clock: every
    deterministic storm exercises this loop body. *)

type config = {
  me : int;
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;  (** per-round receive window, seconds *)
  max_rounds : int;
  batch : bool;  (** coalesce mesh frames per peer per loop iteration *)
  kill_after : int option;  (** mesh-frame kill budget (see {!Mux}) *)
  linger : bool;  (** keep serving after the last client disconnects *)
  wal_dir : string option;  (** durable decision log directory (see {!Wal}) *)
  rejoin : bool;  (** restart: replay WAL, dial everyone, gate on catch-up *)
  dial : (int -> Unix.sockaddr) option;
      (** peer dial-address override (a chaos proxy interposes here);
          defaults to {!Live.Sockets.addr_of} *)
  status : out_channel;  (** JSON-lines: ready / halted / stats events *)
  log : out_channel;
}

module Make (A : Live.Binding.ALGO) : sig
  type t

  val create :
    clock:(unit -> float) ->
    ?listen:Unix.file_descr ->
    peers:Unix.file_descr option array ->
    clients:Unix.file_descr list ->
    config ->
    t
  (** An engine over connected fds, which it owns from then on: [peers]
      (index [p - 1] is the link to node [p]), [clients] and the [listen]
      fd for late clients and rejoins.  It reads time from [clock]; with
      [wal_dir] it opens (and, rejoining, replays) its WAL.  [transport],
      [dial] and [status] are {!main}'s alone. *)

  val step : t -> timeout:float -> [ `Running | `Halted | `Exited ]
  (** One turn of the loop: wait up to [timeout] seconds for readiness,
      accept and read, feed the mux, expire due rounds, commit the WAL,
      flush the batcher and drain every queue as far as the kernel takes.
      [`Halted]: the kill budget ran out; the allowed prefix is already
      delivered and {!realized} holds the crash points; do not step
      again.  [`Exited]: without [linger], the last client left with no
      instance active. *)

  val next_deadline : t -> float option
  (** When the engine next has work without new input: the earliest
      round deadline or hello timeout.  A client backlog makes it due
      now. *)

  val stats : t -> Stats.t
  (** The live counters, slab gauges refreshed. *)

  val realized : t -> Mux.realized list
  (** After [`Halted]: per-instance crash points (see {!Mux}). *)

  val close : t -> unit
  (** Close every fd the engine holds and its WAL. *)

  val main : config -> unit
  (** Handshake, {!create}, report ["ready"], then {!step} until exit.
      Raises [Failure] on handshake errors and never returns after a
      kill-budget halt (SIGSTOP, then SIGKILL). *)
end

module Rwwc : module type of Make (Live.Binding.Rwwc)

(** The per-node serve event loop (DESIGN.md §15–16): one
    single-threaded [poll(2)] loop ({!Evloop}) over the socket mesh, every
    connected client and the mux's round deadlines, in which {b no socket
    syscall can block}.  Reads are nonblocking and feed incremental frame
    decoders into the {!Mux}.  Writes never touch a socket directly:
    {!Batch.flush} hands coalesced buffers to per-destination {!Outq}
    queues, and the pumps at the end of each turn drain them as far as
    the kernel takes.  A destination whose backlog crosses the high-water
    mark is dropped; a new connection parks in a deadlined pending-hello
    state; clients are served under a per-client frame budget with a
    rotating start.

    {b The paper's round order at the write boundary.}  Each peer queue
    has three lanes: Data, Ctl and Catchup.  A turn first hands every
    peer its Data; only when every live peer's Data lane has reached the
    kernel do the Ctl lanes drain, in [send_plan] order (descending pid),
    one destination in full before the next.  A write that blocks holds
    back everything behind it to a later turn.  So a SIGKILL between any
    two [write(2)]s leaves every round a completed data step followed by
    a prefix of its control step, as the extended model requires.
    Toward each peer Data still precedes Ctl.

    {b Durable before revealed.}  With [wal_dir] set, the mux stages
    each decision ({!Wal.add}) and the turn commits them with one write
    and one fsync ({!Wal.commit}).  The turn's mesh rounds (Data/Ctl)
    leave before that fsync: they carry an estimate, not a durable
    promise.  The frames that reveal a decision wait for it: client
    Decides, and the Catchup lanes (mirrors, catch-up slices, end
    markers).  A Catchup backlog never holds back a peer's Data or Ctl.
    A fresh engine starts a new log,
    replacing any it finds.  A respawned engine sets [rejoin]: it replays
    its log (a rejected one degrades to a fresh join) and dials every
    peer.  Its catch-up gate opens once each peer it reached has sent its
    decision log as a Catchup batch, end marker included, or has died.
    A client it accepted before then is closed unread: its Submits name
    instances its peers started at once, which this node, starting them
    late, could decide alone.  Any engine answers a
    post-startup mesh Hello that way, streaming the log a few slices a
    turn while the peer's queue is short of 1 MiB, so a log of any
    length stays below the high-water mark; then it mirrors new
    decisions to the rejoined peer for a round horizon.

    {b Kills.}  A [kill_after] budget halts the mux mid-send.  From then
    on the engine reads nothing; its pumps, still the only writers,
    drain the allowed prefix over later turns, and it reports the
    realized per-instance crash points.  Without [linger], it exits
    once the last client has gone and no instance is active.

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
      (index [p - 1] is the link to node [p]), [clients], served from
      the first turn even when rejoining, and the [listen] fd for late
      clients and rejoins.  It reads time from [clock]; with
      [wal_dir] it opens (and, rejoining, replays) its WAL.  [transport],
      [dial] and [status] are {!main}'s alone. *)

  val step : t -> timeout:float -> [ `Running | `Halted | `Exited ]
  (** One turn of the loop: wait up to [timeout] seconds for readiness,
      accept, read the clients and feed their Submits to the mux, then
      read the peers — so a peer frame that arrives in the turn of its
      instance's Submit finds the instance open — expire due rounds, top up rejoin
      catch-ups, flush the batcher, release the mesh rounds (every Data
      lane, then the Ctl lanes in descending pid order), commit the WAL,
      then drain the client queues and the Catchup lanes — each as far
      as the kernel takes.
      [`Halted]: the kill budget ran out and every live destination's
      queue has since reached the kernel, or 2 s passed on the engine's
      clock ([`Running] until then); {!realized} holds the crash points.
      [`Exited]: without [linger], the last client left with no instance
      active. *)

  val next_deadline : t -> float option
  (** When the engine next has work without new input: the earliest
      round deadline or hello timeout.  A client backlog, or a catch-up
      whose peer queue has room, makes it due now; a halted one is due
      at the end of its drain. *)

  val stats : t -> Stats.t
  (** The live counters, slab gauges refreshed. *)

  val realized : t -> Mux.realized list
  (** After [`Halted]: per-instance crash points (see {!Mux}). *)

  val parked : t -> int
  (** The mux's {!Mux.Make.parked}: peer frames that outran their
      instance's Submit. *)

  val close : t -> unit
  (** Close every fd the engine holds and its WAL. *)

  val main : ?listen:Unix.file_descr -> config -> unit
  (** Handshake, {!create}, report ["ready"], then {!step} until exit.
      [listen] is a listener the caller bound for this node before it
      forked the engine ({!Fleet} binds all n first, so no dial of the
      handshake is refused); without it the engine binds its own, as a
      rejoin and [serve --node] do.  Raises [Failure] on handshake
      errors and never returns after a kill-budget halt (SIGSTOP, then
      SIGKILL). *)
end

module Rwwc : module type of Make (Live.Binding.Rwwc)

(** The per-node serve event loop: one single-threaded [poll(2)]
    readiness loop ({!Evloop}) multiplexing the whole socket mesh, every
    connected client, and the mux's round deadlines — with the invariant
    that {b no socket syscall inside the loop can block}.  The one
    blocking call is the WAL's: with [wal_dir] set, the mux stages each
    decision ({!Wal.add}) and the loop makes a whole turn's decisions
    durable with one {!Wal.commit} — one write and one fsync per loop
    turn that decided anything, not one per decision.  On a 2-vCPU VM the
    n = 5 WAL fleet under a closed loop of 64 (e2ebench
    [serve-wal-closed], medians of ten 20 s runs) went from 3.4k to 37k
    decisions/s with that change, p50 from 18.4 to 1.6 ms and p99 from
    21.5 to 2.4 ms, at about one fsync per node per 64 decisions.

    Reads are nonblocking and feed incremental frame decoders into the
    {!Mux}; writes never touch a socket directly — {!Batch.flush} hands
    its coalesced buffers to per-destination {!Outq} queues, and one
    pass at the end of each turn, after the turn's commit, drains every
    non-empty queue as far as the kernel takes without blocking (partial
    writes resume where they stopped; a queue the kernel refused keeps
    write interest armed).  That pass is the only place a turn's frames
    reach a socket — Decides, mesh frames, mirrored and catch-up frames
    alike — so no frame ever leaves ahead of the decisions it follows.  A destination whose backlog crosses the
    queue high-water mark is declared dead and dropped; it cannot stall
    the mesh.  Decide broadcasts reach every client through one
    refcounted chunk, so a fan-out of [k] clients costs zero extra
    copies.

    The listen socket is drained until [EAGAIN] on every readable wakeup;
    a new connection parks in a pending-hello state (nonblocking read,
    2 s deadline) until its Hello arrives, so a half-open or slow-loris
    connection costs one fd, never a stall.  Client Submits are decoded
    under a per-client frame budget with a rotating round-robin start, so
    one chatty client cannot starve another's instances.

    A [kill_after] budget makes the mux halt mid-send; the engine then
    drains the pre-crash prefix (the frames the budget allowed) with a
    bounded synchronous flush, reports the realized per-instance crash
    points on the status channel, and SIGSTOPs itself for the supervising
    fleet to deliver the real SIGKILL — same protocol as {!Live.Node}.

    Without [linger], the engine exits cleanly once it has seen at least
    one client, the last client has disconnected, and no instance is
    active — after emitting a final ["stats"] status event.

    {b Crash recovery.}  With [wal_dir] set, every decision is staged in
    a per-node {!Wal} before its Decide frame is emitted and committed
    before the frame is written.  A
    respawned engine sets [rejoin]: it replays its WAL into the mux,
    re-listens on its own address, dials {e every} peer (tolerating the
    dead ones), and holds client Submits until each reached peer has
    replayed its decision log as a Catchup batch — so re-submitted
    instances are answered from a log, never re-run.  Symmetrically, any
    engine accepts a post-startup mesh Hello as a peer rejoin: it
    reattaches the peer on the fresh connection, commits, streams its
    own decision log from the WAL as Catchup frames (plus a round-0 end
    marker carrying the count; without a WAL the mux's table is the
    log), and mirrors new
    decisions to the rejoined peer for a full round horizon, covering the
    instances that were in flight during the outage. *)

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

module Make (A : Binding.ALGO) : sig
  val main : config -> unit
  (** Runs until clean exit; raises [Failure] on handshake errors and
      never returns after a kill-budget halt (SIGSTOP, then SIGKILL). *)
end

module Rwwc : sig
  val main : config -> unit
end

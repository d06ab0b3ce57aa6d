type config = {
  me : int;
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;
  max_rounds : int;
  batch : bool;
  kill_after : int option;
  linger : bool;
  wal_dir : string option;
  rejoin : bool;
  dial : (int -> Unix.sockaddr) option;
  status : out_channel;
  log : out_channel;
}

let handshake_timeout = 10.0

(* A rejoining engine gives each peer this long to come up; a peer that is
   itself dead (or also mid-respawn) just stays disconnected — it will dial
   us when it recovers. *)
let rejoin_dial_timeout = 2.0

(* A freshly accepted connection has this long to say Hello before the
   loop drops it — a slow-loris fd costs a map entry, never a stall. *)
let hello_deadline = 2.0

(* Outbound backlog (bytes) past which a never-draining destination is
   declared dead instead of holding memory forever.  Peers get more room
   than clients: a peer backlog means the mesh itself is sick. *)
let peer_hwm = 8 * 1024 * 1024
let client_hwm = 1024 * 1024

(* A rejoin catch-up is topped up only while the peer's queue holds less
   than [catchup_room] bytes, by at most [catchup_slices] log reads (64 KiB
   each) a turn, so a log of any length streams far below [peer_hwm]. *)
let catchup_room = 1024 * 1024
let catchup_slices = 4

(* Frames decoded per client per wakeup before the loop moves to the next
   client — with the round-robin rotation below, a chatty client cannot
   starve another client's Submits. *)
let client_frame_budget = 1024

(* The longest [main] waits for readiness when nothing is due sooner. *)
let idle_wait = 0.25

(* A halted engine keeps turning to deliver the prefix it queued before
   the kill budget ran out, for at most this long on its own clock. *)
let halt_drain = 2.0

(* A peer's outbound queue keeps the turn's frames in three lanes, so
   that [release_rounds] can hand them to the kernel in the paper's order
   and a catch-up waits for the WAL without holding back the rounds. *)
let data_lane = 0
let ctl_lane = 1
let catchup_lane = 2
let lanes = 3

let lane_of = function
  | Live.Frame.Ctl _ -> ctl_lane
  | Live.Frame.Catchup _ -> catchup_lane
  | _ -> data_lane

module Make (A : Live.Binding.ALGO) = struct
  module M = Mux.Make (A)

  type peer = {
    pid : int;
    mutable fd : Unix.file_descr option;
    mutable decoder : Live.Frame.decoder;
        (* replaced wholesale when a restarted peer re-handshakes: the new
           connection is a fresh byte stream *)
    outq : Outq.t;  (* lanes: [data_lane], [ctl_lane], [catchup_lane] *)
    mutable stalled : bool;  (* a write to it blocked this turn *)
    mutable replay : M.catchup option;  (* a rejoin catch-up still to send *)
    mutable readable : bool;  (* the turn's wait reported it readable *)
  }

  type client = {
    id : int;
    cfd : Unix.file_descr;
    cdec : Live.Frame.decoder;
    coutq : Outq.t;
    mutable alive : bool;
    mutable backlog : bool;  (* decoded frames left over from a budget cut *)
    mutable ready : bool;  (* the turn's wait reported it readable *)
    mutable due : bool;  (* served this turn: ready or backlogged *)
  }

  type pending = {
    pfd : Unix.file_descr;
    pbuf : Bytes.t;
    mutable got : int;
    pdeadline : float;
    gated : bool;  (* accepted before the rejoin gate opened: refused *)
  }

  type kind = K_listen | K_peer of peer | K_client of client | K_pending of pending

  let logf cfg = Live.Children.logf cfg.log ~me:cfg.me

  (* One engine: the registry maps each live fd to what it is, and the
     client list is what the round-robin rotates over. *)
  type t = {
    cfg : config;
    clock : unit -> float;
    ev : Evloop.t;
    registry : (Unix.file_descr, kind) Hashtbl.t;
    peers : peer array;
    mutable clients : client list;
    mutable pendings : pending list;
    mutable next_client_id : int;
    mutable rr : int;  (* rotation cursor for fair client draining *)
    mutable had_client : bool;
    listen : Unix.file_descr option;
    wal : Wal.t option;
    mux : M.t;
    stats : Stats.t;
    batch : Batch.t;
    buf : Bytes.t;  (* one read buffer for every socket *)
    awaited : bool array;
        (* reached peers (index [p - 1]) whose catch-up end marker has
           neither arrived nor been overtaken by their death *)
    mutable caught_up : bool;
    mirror_until : float array;
    mutable lfd_ready : bool;
    mutable drain_until : float option;  (* from the mux's halt on *)
  }

  let watch e fd kind =
    Hashtbl.replace e.registry fd kind;
    Evloop.register e.ev fd ~read:true ~write:false

  let new_client e fd =
    let c =
      {
        id = e.next_client_id;
        cfd = fd;
        cdec = Live.Frame.decoder ();
        coutq = Outq.create ~hwm:client_hwm ();
        alive = true;
        backlog = false;
        ready = false;
        due = false;
      }
    in
    e.next_client_id <- e.next_client_id + 1;
    e.clients <- e.clients @ [ c ];
    e.had_client <- true;
    watch e fd (K_client c);
    c

  let drop_fd e fd =
    Evloop.deregister e.ev fd;
    Hashtbl.remove e.registry fd;
    try Unix.close fd with Unix.Unix_error _ -> ()

  let mark_dead e peer why =
    e.awaited.(peer.pid - 1) <- false;
    match peer.fd with
    | None -> ()
    | Some fd ->
      logf e.cfg "peer p%d gone: %s" peer.pid why;
      Outq.clear peer.outq;
      peer.replay <- None;
      drop_fd e fd;
      peer.fd <- None

  let client_dead e c why =
    if c.alive then begin
      logf e.cfg "client #%d gone: %s" c.id why;
      Outq.clear c.coutq;
      drop_fd e c.cfd;
      c.alive <- false;
      c.backlog <- false
    end

  let drop_pending e p why =
    logf e.cfg "late connection dropped: %s" why;
    e.pendings <- List.filter (fun q -> q != p) e.pendings;
    drop_fd e p.pfd

  let dial_addr cfg p =
    match cfg.dial with
    | Some f -> f p
    | None -> Live.Sockets.addr_of ~transport:cfg.transport p

  (* The listen fd stays open for late clients; a client racing the mesh
     is closed by the handshake.  [listen] is one the caller bound before
     it forked this engine; without it the engine binds its own.  A
     rejoining engine dials every peer with a bounded timeout, tolerating
     peers that are down, and expects no accepts: its peers push their
     logs as Catchup batches. *)
  let establish ?listen cfg =
    let jitter = Prng.Rng.of_int ((cfg.me * 7919) lxor Unix.getpid ()) in
    let lfd =
      match listen with
      | Some fd -> fd
      | None -> (
        match
          Live.Sockets.listen ~backlog:128
            (Live.Sockets.addr_of ~transport:cfg.transport cfg.me)
        with
        | Ok fd -> fd
        | Error e -> failwith ("listen: " ^ Live.Sockets.error_to_string e))
    in
    if cfg.rejoin then begin
      let peer_fds = Array.make cfg.n None in
      for p = 1 to cfg.n do
        if p <> cfg.me then
          match
            Live.Node.dial_hello ~jitter ~me:cfg.me
              ~deadline:(Live.Sockets.now () +. rejoin_dial_timeout)
              (dial_addr cfg p)
          with
          | Ok fd ->
            peer_fds.(p - 1) <- Some fd;
            logf cfg "rejoin: dialed p%d" p
          | Error why -> logf cfg "rejoin: p%d: %s" p why
      done;
      (lfd, peer_fds)
    end
    else
      ( lfd,
        Live.Node.handshake ~jitter ~me:cfg.me ~n:cfg.n ~addr:(dial_addr cfg)
          ~deadline:(Live.Sockets.now () +. handshake_timeout)
          ~log:(logf cfg "%s") lfd )

  (* The durable decision log.  A fresh engine starts a new one: a log
     already in place belongs to an earlier life of the directory, whose
     answers are not this fleet's.  A rejoining engine replays its own; a
     rejected log (torn header, foreign node, unknown version) degrades to
     a fresh join, never to replaying suspect decisions. *)
  let open_wal cfg =
    match cfg.wal_dir with
    | None -> None
    | Some dir -> (
      let path = Wal.path ~dir ~node:cfg.me in
      let fresh () =
        (try Sys.remove path with Sys_error _ -> ());
        match Wal.reopen ~path ~node:cfg.me with
        | Ok (w, _) -> Some w
        | Error why -> failwith ("wal: " ^ why)
      in
      if not cfg.rejoin then begin
        if Sys.file_exists path then
          logf cfg "wal: fresh start; replacing a log of %s"
            (match Wal.load ~path ~node:cfg.me with
            | Ok r -> Printf.sprintf "%d entries" (List.length r.Wal.entries)
            | Error why -> why);
        fresh ()
      end
      else
        match Wal.reopen ~path ~node:cfg.me with
        | Ok (w, discarded) ->
          if discarded > 0 then
            logf cfg "wal: rejected %d torn/corrupt trailing bytes" discarded;
          Some w
        | Error why ->
          logf cfg "wal rejected (%s); degrading to a fresh join" why;
          fresh ())

  (* Group commit: one write + fsync for everything the mux staged this
     turn, before any frame that reveals one of its decisions reaches a
     socket.  Whether it fsynced. *)
  let commit e =
    let synced =
      match e.wal with
      | Some w when Wal.commit w > 0 ->
        e.stats.Stats.wal_appends <- e.stats.Stats.wal_appends + 1;
        true
      | Some _ | None -> false
    in
    M.committed e.mux;
    synced

  let create ~clock ?listen ~peers:peer_fds ~clients cfg =
    let wal = open_wal cfg in
    let peers =
      Array.init cfg.n (fun i ->
          {
            pid = i + 1;
            fd = None;
            decoder = Live.Frame.decoder ();
            outq = Outq.create ~hwm:peer_hwm ~lanes ();
            stalled = false;
            replay = None;
            readable = false;
          })
    in
    let cell = ref None in
    let engine () = Option.get !cell in
    (* Mesh frames coalesce per peer; this send closure only *enqueues* —
       bytes hit a socket exclusively in [pump], when the fd is writable.
       Destination 0 broadcasts to every connected client through one
       refcounted chunk; the buffer returns to the batch pool when the
       last client drains it.  The batch's destinations past 0 are
       (peer, lane) slots: [slot] below. *)
    let send ~dest:slot bytes ~len =
      let recycle b = Batch.put_back (engine ()).batch b in
      if slot = 0 then begin
        let live = List.filter (fun c -> c.alive) (engine ()).clients in
        match live with
        | [] -> `Done  (* nobody listening: drop, reuse the buffer *)
        | _ ->
          let chunk =
            Outq.chunk ~shares:(List.length live) ~recycle bytes ~len
          in
          List.iter (fun c -> Outq.push c.coutq chunk) live;
          `Taken
      end
      else
        let peer = peers.((slot - 1) / lanes) in
        match peer.fd with
        | None -> `Done  (* dead peer: drop *)
        | Some _ ->
          Outq.push ~lane:((slot - 1) mod lanes) peer.outq
            (Outq.chunk ~recycle bytes ~len);
          `Taken
    in
    let slot ~dest frame =
      if dest = 0 then 0 else ((dest - 1) * lanes) + lane_of frame + 1
    in
    let mux =
      M.create
        {
          Mux.me = cfg.me;
          n = cfg.n;
          t = cfg.t;
          big_d = cfg.big_d;
          max_rounds = cfg.max_rounds;
          kill_after = cfg.kill_after;
        }
        ?persist:(Option.map Wal.add wal) ?log:wal
        ~emit:(fun ~dest frame ->
          Batch.add_frame (engine ()).batch ~dest:(slot ~dest frame) frame)
        ()
    in
    let stats = M.stats mux in
    Option.iter (fun w -> Wal.iter w (M.seed_decision mux)) wal;
    let e =
      {
        cfg;
        clock;
        ev = Evloop.create ();
        registry = Hashtbl.create 64;
        peers;
        clients = [];
        pendings = [];
        next_client_id = 0;
        rr = 0;
        had_client = false;
        listen;
        wal;
        mux;
        stats;
        batch = Batch.create ~n:(cfg.n * lanes) ~batch:cfg.batch ~stats ~send;
        buf = Bytes.create 65536;
        (* A rejoin awaits one catch-up batch from each peer it reached,
           and starts gated even when it reached none. *)
        awaited =
          Array.mapi (fun i fd -> cfg.rejoin && i + 1 <> cfg.me && fd <> None)
            peer_fds;
        caught_up = not cfg.rejoin;
        mirror_until = Array.make cfg.n 0.0;
        lfd_ready = false;
        drain_until = None;
      }
    in
    cell := Some e;
    List.iter
      (fun fd ->
        Unix.set_nonblock fd;
        ignore (new_client e fd))
      clients;
    Option.iter
      (fun lfd ->
        Unix.set_nonblock lfd;
        watch e lfd K_listen)
      listen;
    Array.iteri
      (fun i fd ->
        match fd with
        | Some fd when i + 1 <> cfg.me ->
          Unix.set_nonblock fd;
          peers.(i).fd <- Some fd;
          watch e fd (K_peer peers.(i))
        | _ -> ())
      peer_fds;
    (* Replayed decisions are durable already: their full chunks spill. *)
    ignore (commit e);
    let recovered = stats.Stats.wal_replayed in
    if recovered > 0 then logf cfg "wal: replayed %d decisions" recovered;
    e

  (* Rejoin catch-up gate: it opens once every reached peer has sent its
     end-of-batch marker or died.  A client accepted before then is
     refused unread: its Submits name instances the peers started at
     once, and by the time the gate opens they may have expired round 1,
     so this node would run them alone.  Mesh traffic flows throughout. *)
  let check_caught_up e =
    if (not e.caught_up) && not (Array.mem true e.awaited) then begin
      e.caught_up <- true;
      logf e.cfg "caught up: %d decisions adopted" e.stats.Stats.catchup_in
    end

  (* Peers that recently rejoined keep receiving every new decision as a
     Catchup mirror until the instances that straddled their outage have
     drained — one full horizon plus slack. *)
  let mirror_window cfg = (float_of_int (cfg.max_rounds + 2) *. cfg.big_d) +. 1.0

  let mirror_refresh e =
    let now = e.clock () in
    let live = ref [] in
    for p = e.cfg.n downto 1 do
      if p <> e.cfg.me && e.mirror_until.(p - 1) > now then live := p :: !live
    done;
    M.set_mirror e.mux !live

  (* Drain one lane of a destination's queue as far as the kernel takes.
     [`Dead why]: the destination is closed, or its backlog crossed
     [hwm]. *)
  let pump e q ?lane fd ~hwm =
    if Outq.over_hwm q then begin
      e.stats.Stats.overflow_kills <- e.stats.Stats.overflow_kills + 1;
      `Dead (Printf.sprintf "outbound backlog over %d bytes" hwm)
    end
    else
      match Outq.drain q ?lane ~stats:e.stats fd with
      | `Closed why -> `Dead why
      | (`Empty | `Blocked) as r -> r

  (* A peer whose write blocked takes no more writes this turn. *)
  let pump_peer e p lane =
    match p.fd with
    | Some fd when not (p.stalled || Outq.is_empty ~lane p.outq) -> (
      match pump e p.outq ~lane fd ~hwm:peer_hwm with
      | `Empty -> ()
      | `Blocked -> p.stalled <- true
      | `Dead why -> mark_dead e p why)
    | _ -> ()

  (* A dead peer holds nothing back: its queue went with it. *)
  let passed p lane = p.fd = None || Outq.is_empty ~lane p.outq

  (* The paper's extended round at the write boundary (see the
     interface): every Data lane first; only once all passed, the Ctl
     lanes in [send_plan] order (descending pid), stopping at the first
     that blocks.  Toward each peer Data still precedes Ctl, which
     [round_senders] relies on. *)
  let release_rounds e =
    Array.iter (fun p -> pump_peer e p data_lane) e.peers;
    if Array.for_all (fun p -> passed p data_lane) e.peers then begin
      let rec ctl pid =
        if pid >= 1 then begin
          let p = e.peers.(pid - 1) in
          pump_peer e p ctl_lane;
          if passed p ctl_lane then ctl (pid - 1)
        end
      in
      ctl e.cfg.n
    end

  (* Write interest exactly where a write blocked: a lane held back
     behind another peer's write must not wake the loop. *)
  let arm_peers e =
    Array.iter
      (fun p ->
        match p.fd with
        | Some fd ->
          Evloop.register e.ev fd ~read:(e.drain_until = None) ~write:p.stalled
        | None -> ())
      e.peers

  let pump_clients e =
    List.iter
      (fun c ->
        if c.alive && not (Outq.is_empty c.coutq) then
          match pump e c.coutq c.cfd ~hwm:client_hwm with
          | `Dead why -> client_dead e c why
          | (`Empty | `Blocked) as r ->
            Evloop.register e.ev c.cfd ~read:(e.drain_until = None)
              ~write:(r = `Blocked))
      e.clients

  (* The drains below are top-level recursions, not local closures: a
     turn's reads allocate nothing of their own.  [now] is the turn's
     clock, read once after its wait. *)
  let rec drain_peer e peer ~now =
    if not (M.halted e.mux) then
      match Live.Frame.pop_view peer.decoder with
      | `View v ->
        (* A Catchup with round 0 is a peer's end-of-batch marker for
           the rejoin gate, not a decision. *)
        if v.Live.Frame.kind = Live.Frame.K_catchup && v.Live.Frame.round = 0
        then begin
          e.awaited.(peer.pid - 1) <- false;
          logf e.cfg "catch-up batch from p%d: %d decisions" peer.pid
            v.Live.Frame.value
        end
        else M.on_view e.mux ~now ~from:peer.pid v;
        drain_peer e peer ~now
      | `Need_more -> ()
      | `Corrupt why -> mark_dead e peer ("corrupt stream: " ^ why)

  (* One nonblocking read into [dec]. *)
  let read e fd dec =
    match Live.Sockets.read_chunk fd e.buf with
    | `Data k ->
      Live.Frame.feed dec (Bytes.unsafe_to_string e.buf) ~pos:0 ~len:k;
      `Data
    | (`Closed | `Nothing) as r -> r

  let read_peer e peer ~now =
    match peer.fd with
    | None -> ()
    | Some fd -> (
      match read e fd peer.decoder with
      | `Data -> drain_peer e peer ~now
      | `Closed -> mark_dead e peer "eof"
      | `Nothing -> ())

  (* Decode at most [budget] frames, then yield: leftover frames stay
     buffered and flag [backlog] so the next iteration (at timeout 0)
     resumes — after every other client had its turn. *)
  let rec drain_client e c ~now budget =
    if c.alive && not (M.halted e.mux) then
      if budget = 0 then c.backlog <- true
      else
        match Live.Frame.pop_view c.cdec with
        | `View v ->
          (match v.Live.Frame.kind with
          | Live.Frame.K_submit ->
            M.submit e.mux ~now ~instance:v.Live.Frame.instance
              ~proposal:v.Live.Frame.value
          | _ -> ());
          drain_client e c ~now (budget - 1)
        | `Need_more -> c.backlog <- false
        | `Corrupt why -> client_dead e c ("corrupt stream: " ^ why)

  let accept_drain e lfd =
    let continue = ref true in
    while !continue do
      match Live.Sockets.accept_nonblock lfd with
      | `Conn fd ->
        let p =
          {
            pfd = fd;
            pbuf = Bytes.create Live.Frame.hello_size;
            got = 0;
            pdeadline = e.clock () +. hello_deadline;
            gated = not e.caught_up;
          }
        in
        e.pendings <- p :: e.pendings;
        watch e fd (K_pending p)
      | `Nothing -> continue := false
      | `Error err ->
        logf e.cfg "accept: %s" (Live.Sockets.error_to_string err);
        continue := false
    done

  let pending_read e p =
    let cfg = e.cfg in
    match Unix.read p.pfd p.pbuf p.got (Live.Frame.hello_size - p.got) with
    | 0 -> drop_pending e p "closed before hello"
    | k ->
      p.got <- p.got + k;
      if p.got >= Live.Frame.hello_size then begin
        e.pendings <- List.filter (fun q -> q != p) e.pendings;
        match Live.Frame.hello_of_string (Bytes.to_string p.pbuf) with
        | Ok 0 when p.gated ->
          logf cfg "client refused: connected before the catch-up gate opened";
          drop_fd e p.pfd
        | Ok 0 ->
          ignore (new_client e p.pfd);
          logf cfg "client connected"
        | Ok node when node >= 1 && node <= cfg.n && node <> cfg.me ->
          (* A restarted peer re-handshaking into the mesh.  Reattach it
             on the fresh connection (the old one, if still registered,
             is from its previous life), then replay the whole decision
             log as a Catchup batch — committed first, so the log read
             back holds every decision so far; [stream_catchups] sends
             it a slice at a time, then its end marker — and mirror new
             decisions to it for a full horizon. *)
          let peer = e.peers.(node - 1) in
          mark_dead e peer "replaced by rejoin";
          peer.fd <- Some p.pfd;
          peer.decoder <- Live.Frame.decoder ();
          watch e p.pfd (K_peer peer);
          ignore (commit e);
          peer.replay <- Some (M.catchup e.mux ~peer:node);
          e.mirror_until.(node - 1) <- e.clock () +. mirror_window cfg;
          mirror_refresh e;
          logf cfg "p%d rejoined; replaying %d decisions" node
            (M.decided_count e.mux)
        | Ok node ->
          logf cfg "unexpected mesh hello from p%d after startup; dropped" node;
          drop_fd e p.pfd
        | Error why ->
          logf cfg "bad late hello: %s" why;
          drop_fd e p.pfd
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error (errno, _, _) ->
      drop_pending e p (Unix.error_message errno)

  (* Only notes readiness: a readable client or peer is read after the
     wait, clients first, and a writable fd is served by the pumps at the
     end of [step] — the one place a turn's frames reach a socket. *)
  let handle e fd ~readable ~writable:_ =
    if readable then
      match Hashtbl.find e.registry fd with
      | exception Not_found -> ()  (* dropped by an earlier callback *)
      | K_listen -> e.lfd_ready <- true
      | K_pending p -> pending_read e p
      | K_peer peer -> peer.readable <- true
      | K_client c -> c.ready <- true

  let serve_client e c ~now =
    if c.alive && not (M.halted e.mux) then begin
      if c.ready && read e c.cfd c.cdec = `Closed then
        client_dead e c "disconnected";
      drain_client e c ~now client_frame_budget
    end

  (* Mark the turn's due clients; how many. *)
  let rec mark_due k = function
    | [] -> k
    | c :: rest ->
      c.due <- c.alive && (c.backlog || c.ready);
      mark_due (if c.due then k + 1 else k) rest

  (* Serve the due clients of rank [lo] to [hi - 1], in list order. *)
  let rec serve_ranks e ~now ~lo ~hi k = function
    | [] -> ()
    | c :: rest ->
      if c.due then begin
        if k >= lo && k < hi then serve_client e c ~now;
        serve_ranks e ~now ~lo ~hi (k + 1) rest
      end
      else serve_ranks e ~now ~lo ~hi k rest

  (* Fair client service: rotate the starting point, read one chunk from
     each client that signalled, then decode under the shared budget —
     backlogged clients rejoin even without new bytes. *)
  let serve_clients e ~now =
    let m = mark_due 0 e.clients in
    if m > 0 then begin
      let start = e.rr mod m in
      e.rr <- e.rr + 1;
      serve_ranks e ~now ~lo:start ~hi:m 0 e.clients;
      serve_ranks e ~now ~lo:0 ~hi:start 0 e.clients
    end

  (* The peers the wait found readable, in pid order — after the clients,
     so a frame that arrives with its instance's Submit finds the slot. *)
  let read_peers e ~now =
    for i = 0 to Array.length e.peers - 1 do
      let p = e.peers.(i) in
      if p.readable then begin
        p.readable <- false;
        read_peer e p ~now
      end
    done

  let catchup_due p =
    Option.is_some p.replay && Option.is_some p.fd
    && Outq.queued_bytes p.outq < catchup_room

  let stream_catchups e =
    Array.iter
      (fun p ->
        if catchup_due p then
          let rec go k =
            match M.catchup_step e.mux (Option.get p.replay) with
            | `More -> if k > 1 then go (k - 1)
            | `Done count ->
              p.replay <- None;
              logf e.cfg "catch-up to p%d sent: %d decisions" p.pid count
          in
          go catchup_slices)
      e.peers

  (* Retire mirrors whose horizon has drained. *)
  let retire_mirrors e =
    let now = e.clock () in
    let changed = ref false in
    Array.iteri
      (fun i u ->
        if u > 0.0 && u <= now then begin
          e.mirror_until.(i) <- 0.0;
          changed := true
        end)
      e.mirror_until;
    if !changed then mirror_refresh e

  let step e ~timeout =
    let cfg = e.cfg in
    List.iter (fun c -> c.ready <- false) e.clients;
    e.lfd_ready <- false;
    ignore (Evloop.wait e.ev ~timeout ~handle:(handle e));
    (match e.listen with
    | Some lfd when e.lfd_ready -> accept_drain e lfd
    | _ -> ());
    let now = e.clock () in
    serve_clients e ~now;
    read_peers e ~now;
    check_caught_up e;
    (* Expired hellos cost their fd, nothing else. *)
    let now = e.clock () in
    List.iter
      (fun p -> if p.pdeadline <= now then drop_pending e p "hello timed out")
      e.pendings;
    retire_mirrors e;
    M.expire e.mux ~now:(e.clock ());
    if not (M.halted e.mux) then stream_catchups e
    else if e.drain_until = None then begin
      (* The kill budget ran out this turn: from now on read nothing,
         only drain the prefix it allowed. *)
      e.drain_until <- Some (e.clock () +. halt_drain);
      Hashtbl.iter
        (fun fd _ -> Evloop.register e.ev fd ~read:false ~write:false)
        e.registry
    end;
    (* Durable before revealed (see the interface): the mesh rounds
       leave before the fsync, the client queues (Decides) and Catchup
       lanes after it.  These pumps are the loop's only socket writers,
       each going only as far as the kernel takes without blocking. *)
    Batch.flush e.batch;
    Array.iter (fun p -> p.stalled <- false) e.peers;
    let writes = e.stats.Stats.write_calls in
    release_rounds e;
    let frames = e.stats.Stats.frames_out in
    if commit e then
      e.stats.Stats.presync_writes <-
        e.stats.Stats.presync_writes + e.stats.Stats.write_calls - writes;
    (* Answers to spilled re-submits; no second flush otherwise. *)
    if e.stats.Stats.frames_out > frames then Batch.flush e.batch;
    pump_clients e;
    Array.iter (fun p -> pump_peer e p catchup_lane) e.peers;
    arm_peers e;
    e.clients <- List.filter (fun c -> c.alive) e.clients;
    (* A drain ends once every live destination took its queue, or when
       its time is up (a peer that never reads loses the rest). *)
    match e.drain_until with
    | Some dl
      when e.clock () < dl
           && not
                (Array.for_all (fun p -> Outq.is_empty p.outq) e.peers
                && List.for_all (fun c -> Outq.is_empty c.coutq) e.clients) ->
      `Running
    | Some _ ->
      logf cfg "kill budget exhausted after %d mesh writes; stopping"
        (M.mesh_writes e.mux);
      `Halted
    | None
      when (not cfg.linger) && e.had_client && e.clients = [] && M.active e.mux = 0
      ->
      logf cfg "last client gone and no instance active; exiting";
      `Exited
    | None -> `Running

  (* A client backlog, or a catch-up with room to grow, is due at once:
     the next turn must not wait. *)
  let next_deadline e =
    if Option.is_some e.drain_until then e.drain_until
    else if
      List.exists (fun c -> c.alive && c.backlog) e.clients
      || Array.exists catchup_due e.peers
    then
      Some (e.clock ())
    else
      List.fold_left
        (fun dl p ->
          match dl with
          | Some d when d <= p.pdeadline -> dl
          | _ -> Some p.pdeadline)
        (M.next_deadline e.mux) e.pendings

  let stats e =
    e.stats.Stats.slab_capacity <- M.slab_capacity e.mux;
    e.stats.Stats.slab_reused <- M.slab_reused e.mux;
    e.stats

  let realized e = M.realized e.mux
  let parked e = M.parked e.mux

  let close e =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) e.listen;
    Array.iter (fun p -> mark_dead e p "shutdown") e.peers;
    List.iter (fun c -> client_dead e c "shutdown") e.clients;
    List.iter (fun p -> drop_fd e p.pfd) e.pendings;
    Option.iter Wal.close e.wal

  let main ?listen cfg =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen, peers = establish ?listen cfg in
    let e = create ~clock:Live.Sockets.now ~listen ~peers ~clients:[] cfg in
    let report event fields =
      Live.Children.status_event cfg.status
        ((("event", Obs.Json.String event) :: ("node", Obs.Json.Int cfg.me)
         :: fields)
        @ [ ("stats", Stats.to_json (stats e)) ])
    in
    Live.Children.status_event cfg.status
      [
        ("event", Obs.Json.String "ready");
        ("node", Obs.Json.Int cfg.me);
        ("recovered", Obs.Json.Int e.stats.Stats.wal_replayed);
      ];
    logf cfg "mesh up; serving";
    let rec loop () =
      let timeout =
        match next_deadline e with
        | None -> idle_wait
        | Some d -> Float.max 0.0 (Float.min idle_wait (d -. Live.Sockets.now ()))
      in
      match step e ~timeout with
      | `Running -> loop ()
      | `Halted ->
        report "halted"
          [
            ( "realized",
              Obs.Json.List (List.map Mux.realized_to_json (realized e)) );
          ];
        Live.Children.stop_for_kill ()
      | `Exited -> report "stats" []
    in
    loop ();
    close e
end

module Rwwc = Make (Live.Binding.Rwwc)

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

(* Fallback for the catch-up gate: if a dialed peer never sends its
   end-of-batch marker (killed mid-push), the rejoining engine starts
   serving clients anyway after this long. *)
let catchup_timeout = 5.0

(* A freshly accepted connection has this long to say Hello before the
   loop drops it — a slow-loris fd costs a map entry, never a stall. *)
let hello_deadline = 2.0

(* Outbound backlog (bytes) past which a never-draining destination is
   declared dead instead of holding memory forever.  Peers get more room
   than clients: a peer backlog means the mesh itself is sick. *)
let peer_hwm = 8 * 1024 * 1024
let client_hwm = 1024 * 1024

(* Frames decoded per client per wakeup before the loop moves to the next
   client — with the round-robin rotation below, a chatty client cannot
   starve another client's Submits. *)
let client_frame_budget = 1024

(* The longest [main] waits for readiness when nothing is due sooner. *)
let idle_wait = 0.25

module Make (A : Live.Binding.ALGO) = struct
  module M = Mux.Make (A)

  type peer = {
    pid : int;
    mutable fd : Unix.file_descr option;
    mutable decoder : Live.Frame.decoder;
        (* replaced wholesale when a restarted peer re-handshakes: the new
           connection is a fresh byte stream *)
    outq : Outq.t;
  }

  type client = {
    id : int;
    cfd : Unix.file_descr;
    cdec : Live.Frame.decoder;
    coutq : Outq.t;
    mutable alive : bool;
    mutable backlog : bool;  (* decoded frames left over from a budget cut *)
  }

  type pending = {
    pfd : Unix.file_descr;
    pbuf : Bytes.t;
    mutable got : int;
    pdeadline : float;
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
    catchup_expect : int;
    mutable catchup_got : int;
    catchup_deadline : float;
    mutable caught_up : bool;
    mirror_until : float array;
    mutable ready_clients : client list;
    mutable lfd_ready : bool;
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
    match peer.fd with
    | None -> ()
    | Some fd ->
      logf e.cfg "peer p%d gone: %s" peer.pid why;
      Outq.clear peer.outq;
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

  (* The listen fd stays open for late clients, and a client racing the
     mesh joins the client list.  A rejoining engine instead dials every
     peer with a bounded timeout, tolerating peers that are down, and
     expects no accepts: its peers push their logs as Catchup batches. *)
  let establish cfg =
    let jitter = Prng.Rng.of_int ((cfg.me * 7919) lxor Unix.getpid ()) in
    let lfd =
      match
        Live.Sockets.listen ~backlog:128
          (Live.Sockets.addr_of ~transport:cfg.transport cfg.me)
      with
      | Ok fd -> fd
      | Error e -> failwith ("listen: " ^ Live.Sockets.error_to_string e)
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
      (lfd, peer_fds, [])
    end
    else begin
      let clients = ref [] in
      let peer_fds =
        Live.Node.handshake ~jitter ~me:cfg.me ~n:cfg.n ~addr:(dial_addr cfg)
          ~deadline:(Live.Sockets.now () +. handshake_timeout)
          ~log:(logf cfg "%s")
          ~client:(fun fd ->
            clients := fd :: !clients;
            logf cfg "client connected during handshake")
          lfd
      in
      (lfd, peer_fds, List.rev !clients)
    end

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
     turn, before any of the turn's frames reaches a socket. *)
  let commit e =
    Option.iter
      (fun w ->
        if Wal.commit w > 0 then
          e.stats.Stats.wal_appends <- e.stats.Stats.wal_appends + 1)
      e.wal;
    M.committed e.mux

  let create ~clock ?listen ~peers:peer_fds ~clients cfg =
    let wal = open_wal cfg in
    let peers =
      Array.init cfg.n (fun i ->
          {
            pid = i + 1;
            fd = None;
            decoder = Live.Frame.decoder ();
            outq = Outq.create ~hwm:peer_hwm ();
          })
    in
    let cell = ref None in
    let engine () = Option.get !cell in
    (* Mesh frames coalesce per peer; this send closure only *enqueues* —
       bytes hit a socket exclusively in [pump], when the fd is writable.
       Destination 0 broadcasts to every connected client through one
       refcounted chunk; the buffer returns to the batch pool when the
       last client drains it. *)
    let send ~dest bytes ~len =
      let recycle b = Batch.put_back (engine ()).batch b in
      if dest = 0 then begin
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
        let peer = peers.(dest - 1) in
        match peer.fd with
        | None -> `Done  (* dead peer: drop *)
        | Some _ ->
          Outq.push peer.outq (Outq.chunk ~recycle bytes ~len);
          `Taken
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
        ?persist:(Option.map Wal.add wal) ?recall:(Option.map Wal.iter wal)
        ~emit:(fun ~dest frame ->
          Batch.add (engine ()).batch ~dest (Live.Frame.encode frame))
        ()
    in
    let stats = M.stats mux in
    Option.iter (fun w -> Wal.iter w (M.seed_decision mux)) wal;
    (* A rejoin awaits one catch-up batch from each peer it reached. *)
    let reached =
      if cfg.rejoin then
        Array.fold_left (fun k fd -> if fd = None then k else k + 1) 0 peer_fds
      else 0
    in
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
        batch = Batch.create ~n:cfg.n ~batch:cfg.batch ~stats ~send;
        buf = Bytes.create 65536;
        catchup_expect = reached;
        catchup_got = 0;
        catchup_deadline = clock () +. catchup_timeout;
        caught_up = reached = 0;
        mirror_until = Array.make cfg.n 0.0;
        ready_clients = [];
        lfd_ready = false;
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
    commit e;
    let recovered = stats.Stats.wal_replayed in
    if recovered > 0 then logf cfg "wal: replayed %d decisions" recovered;
    e

  (* Rejoin catch-up gate: until every reached peer has pushed its
     decision-log batch (or the fallback deadline passes), client Submits
     stay unread — re-running an instance the mesh already decided, alone
     and from round 1, could converge on a different value.  Mesh traffic
     flows normally throughout. *)
  let check_caught_up e =
    if not e.caught_up then
      if e.catchup_got >= e.catchup_expect then begin
        e.caught_up <- true;
        logf e.cfg "caught up: %d peer batches, %d decisions adopted"
          e.catchup_got e.stats.Stats.catchup_in
      end
      else if e.clock () > e.catchup_deadline then begin
        e.caught_up <- true;
        logf e.cfg "catch-up timed out (%d of %d batches); serving anyway"
          e.catchup_got e.catchup_expect
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

  (* Drain one destination's queue opportunistically and keep its write
     interest armed exactly while bytes remain.  [Some why]: the
     destination is dead — closed, or its backlog crossed [hwm]. *)
  let pump e q fd ~hwm =
    if Outq.over_hwm q then begin
      e.stats.Stats.overflow_kills <- e.stats.Stats.overflow_kills + 1;
      Some (Printf.sprintf "outbound backlog over %d bytes" hwm)
    end
    else
      match Outq.drain q ~stats:e.stats fd with
      | `Empty ->
        Evloop.register e.ev fd ~read:true ~write:false;
        None
      | `Blocked ->
        Evloop.register e.ev fd ~read:true ~write:true;
        None
      | `Closed why -> Some why

  let pump_all e =
    Array.iter
      (fun p ->
        match p.fd with
        | Some fd when not (Outq.is_empty p.outq) -> (
          match pump e p.outq fd ~hwm:peer_hwm with
          | Some why -> mark_dead e p why
          | None -> ())
        | _ -> ())
      e.peers;
    List.iter
      (fun c ->
        if c.alive && not (Outq.is_empty c.coutq) then
          match pump e c.coutq c.cfd ~hwm:client_hwm with
          | Some why -> client_dead e c why
          | None -> ())
      e.clients

  let drain_peer e peer =
    let rec go () =
      if not (M.halted e.mux) then
        match Live.Frame.pop_view peer.decoder with
        | `View v ->
          (* A Catchup with round 0 is a peer's end-of-batch marker for
             the rejoin gate, not a decision. *)
          if
            v.Live.Frame.kind = Live.Frame.K_catchup && v.Live.Frame.round = 0
          then begin
            e.catchup_got <- e.catchup_got + 1;
            logf e.cfg "catch-up batch from p%d: %d decisions" peer.pid
              v.Live.Frame.value;
            check_caught_up e
          end
          else M.on_view e.mux ~now:(e.clock ()) ~from:peer.pid v;
          go ()
        | `Need_more -> ()
        | `Corrupt why -> mark_dead e peer ("corrupt stream: " ^ why)
    in
    go ()

  (* One nonblocking read into [dec]. *)
  let read e fd dec =
    match Live.Sockets.read_chunk fd e.buf with
    | `Data k ->
      Live.Frame.feed dec (Bytes.unsafe_to_string e.buf) ~pos:0 ~len:k;
      `Data
    | (`Closed | `Nothing) as r -> r

  let read_peer e peer =
    match peer.fd with
    | None -> ()
    | Some fd -> (
      match read e fd peer.decoder with
      | `Data -> drain_peer e peer
      | `Closed -> mark_dead e peer "eof"
      | `Nothing -> ())

  (* Decode at most [client_frame_budget] frames, then yield: leftover
     frames stay buffered and flag [backlog] so the next iteration (at
     timeout 0) resumes — after every other client had its turn. *)
  let drain_client e c =
    let budget = ref client_frame_budget in
    let rec go () =
      if c.alive && not (M.halted e.mux) then
        if !budget = 0 then c.backlog <- true
        else
          match Live.Frame.pop_view c.cdec with
          | `View v ->
            decr budget;
            (match v.Live.Frame.kind with
            | Live.Frame.K_submit ->
              M.submit e.mux ~now:(e.clock ()) ~instance:v.Live.Frame.instance
                ~proposal:v.Live.Frame.value
            | _ -> ());
            go ()
          | `Need_more -> c.backlog <- false
          | `Corrupt why -> client_dead e c ("corrupt stream: " ^ why)
    in
    go ()

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
        | Ok 0 ->
          ignore (new_client e p.pfd);
          logf cfg "client connected"
        | Ok node when node >= 1 && node <= cfg.n && node <> cfg.me ->
          (* A restarted peer re-handshaking into the mesh.  Reattach it
             on the fresh connection (the old one, if still registered,
             is from its previous life), then replay the whole decision
             log as a Catchup batch — committed first, so the stream
             read back from the WAL holds every decision; FIFO on the
             new link, so the batch and its end marker arrive before any
             round traffic we send the peer afterwards — and mirror new
             decisions to it for a full horizon. *)
          let peer = e.peers.(node - 1) in
          mark_dead e peer "replaced by rejoin";
          peer.fd <- Some p.pfd;
          peer.decoder <- Live.Frame.decoder ();
          watch e p.pfd (K_peer peer);
          commit e;
          let count = M.catchup e.mux ~peer:node in
          e.mirror_until.(node - 1) <- e.clock () +. mirror_window cfg;
          mirror_refresh e;
          logf cfg "p%d rejoined; replaying %d decisions" node count
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

  (* Reads only: a writable fd is served by [pump_all] after the turn's
     commit — the one place a turn's frames reach a socket. *)
  let handle e fd ~readable ~writable:_ =
    match Hashtbl.find_opt e.registry fd with
    | None -> ()  (* dropped by an earlier callback this round *)
    | Some K_listen -> if readable then e.lfd_ready <- true
    | Some (K_pending p) -> if readable then pending_read e p
    | Some (K_peer peer) -> if readable then read_peer e peer
    | Some (K_client c) ->
      if readable && not (List.memq c e.ready_clients) then
        e.ready_clients <- c :: e.ready_clients

  (* Fair client service: rotate the starting point, read one chunk from
     each client that signalled, then decode under the shared budget —
     backlogged clients rejoin even without new bytes. *)
  let serve_clients e =
    let service =
      if not e.caught_up then []
      else
        List.filter
          (fun c -> c.alive && (c.backlog || List.memq c e.ready_clients))
          e.clients
    in
    match service with
    | [] -> ()
    | _ ->
      let m = List.length service in
      let start = e.rr mod m in
      e.rr <- e.rr + 1;
      let arr = Array.of_list service in
      for k = 0 to m - 1 do
        let c = arr.((start + k) mod m) in
        if c.alive && not (M.halted e.mux) then begin
          if List.memq c e.ready_clients && read e c.cfd c.cdec = `Closed then
            client_dead e c "disconnected";
          drain_client e c
        end
      done

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
    e.ready_clients <- [];
    e.lfd_ready <- false;
    ignore (Evloop.wait e.ev ~timeout ~handle:(handle e));
    (match e.listen with
    | Some lfd when e.lfd_ready -> accept_drain e lfd
    | _ -> ());
    check_caught_up e;
    serve_clients e;
    (* Expired hellos cost their fd, nothing else. *)
    let now = e.clock () in
    List.iter
      (fun p -> if p.pdeadline <= now then drop_pending e p "hello timed out")
      e.pendings;
    retire_mirrors e;
    M.expire e.mux ~now:(e.clock ());
    (* Durability before visibility: the turn's decisions hit the disk
       before any of its frames leaves the process.  Then everything this
       iteration produced goes to the queues — including, on a halt, the
       pre-crash prefix the budget allowed (the kernel would have flushed
       those buffers; the mux already stopped counting) — and the queues
       drain only as far as the kernel accepts without blocking. *)
    commit e;
    Batch.flush e.batch;
    pump_all e;
    e.clients <- List.filter (fun c -> c.alive) e.clients;
    if M.halted e.mux then begin
      (* Off the steady-state loop now: deliver the allowed prefix with a
         bounded synchronous flush. *)
      let dl = Unix.gettimeofday () +. 2.0 in
      Array.iter
        (fun p ->
          match p.fd with
          | Some fd -> Outq.drain_blocking p.outq ~deadline:dl fd
          | None -> ())
        e.peers;
      List.iter
        (fun c -> if c.alive then Outq.drain_blocking c.coutq ~deadline:dl c.cfd)
        e.clients;
      logf cfg "kill budget exhausted after %d mesh writes; stopping"
        (M.mesh_writes e.mux);
      `Halted
    end
    else if
      (not cfg.linger) && e.had_client && e.clients = [] && M.active e.mux = 0
    then begin
      logf cfg "last client gone and no instance active; exiting";
      `Exited
    end
    else `Running

  (* A client backlog is due at once: the next turn must not wait. *)
  let next_deadline e =
    if List.exists (fun c -> c.alive && c.backlog) e.clients then
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

  let close e =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) e.listen;
    Array.iter (fun p -> mark_dead e p "shutdown") e.peers;
    List.iter (fun c -> client_dead e c "shutdown") e.clients;
    List.iter (fun p -> drop_fd e p.pfd) e.pendings;
    Option.iter Wal.close e.wal

  let halt_forever () =
    Unix.kill (Unix.getpid ()) Sys.sigstop;
    let rec forever () =
      ignore (Unix.sleep 3600);
      forever ()
    in
    forever ()

  let main cfg =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen, peers, clients = establish cfg in
    let e = create ~clock:Live.Sockets.now ~listen ~peers ~clients cfg in
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
        halt_forever ()
      | `Exited -> report "stats" []
    in
    loop ();
    close e
end

module Rwwc = Make (Live.Binding.Rwwc)

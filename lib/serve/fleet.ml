type config = {
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  workspace : string;
  instances : int;
  window : int;
  big_d : float;
  batch : bool;
  backend : Evloop.backend;
  kill : Report.kill_spec option;
  max_rounds : int option;
  proposals : int -> int -> int;
  client_timeout : float option;
  respawn : bool;
  respawn_budget : int;
  respawn_backoff : float;
  wal : bool;
  chaos : Chaosproxy.link list;
  verbose : bool;
}

let vlog cfg fmt =
  Printf.ksprintf
    (fun s -> if cfg.verbose then Printf.eprintf "serve: %s\n%!" s)
    fmt

type node = {
  proc : Live.Children.child;
  mutable ready : bool;
  mutable realized : Mux.realized list option;  (* from a "halted" event *)
  mutable stats : Stats.t option;  (* summed across lives *)
}

let handle_event nd j =
  (* A respawned engine reports a fresh stats block at its own exit;
     sum across lives so the report sees the node's total work. *)
  let merge_stats () =
    match Obs.Json.member "stats" j with
    | Some sj -> (
      match Stats.of_json sj with
      | Error _ -> ()
      | Ok s -> (
        match nd.stats with
        | None -> nd.stats <- Some s
        | Some old ->
          Stats.add old s;
          nd.stats <- Some old))
    | None -> ()
  in
  match Obs.Json.member "event" j with
  | Some (Obs.Json.String "ready") -> nd.ready <- true
  | Some (Obs.Json.String "stats") -> merge_stats ()
  | Some (Obs.Json.String "halted") ->
    merge_stats ();
    (match Obs.Json.member "realized" j with
    | Some (Obs.Json.List items) ->
      let rs =
        List.filter_map
          (fun item ->
            match Mux.realized_of_json item with
            | Ok r -> Some r
            | Error _ -> None)
          items
      in
      nd.realized <- Some rs
    | _ -> nd.realized <- Some [])
  | _ -> ()

(* A killed engine (SIGSTOP answered with SIGKILL, or a direct SIGKILL
   from the driver / a chaos script) is eligible for a supervised respawn:
   budgeted attempts with exponential backoff.  A clean exit is never
   respawned, and neither is anything once the drive is over. *)
let reap_one cfg ~accepting (c : Live.Children.child) =
  match Live.Children.reap c with
  | None | Some (`Exited _) -> ()
  | Some ((`Stop_killed | `Signaled _) as obs) -> (
    if obs = `Stop_killed then
      vlog cfg "node %d stopped at its kill point; SIGKILL" c.id;
    if cfg.respawn && accepting then
      match
        Live.Children.schedule_respawn c ~budget:cfg.respawn_budget
          ~base:cfg.respawn_backoff
      with
      | None ->
        vlog cfg "node %d: respawn budget (%d) exhausted" c.id
          cfg.respawn_budget
      | Some backoff ->
        vlog cfg "node %d died; respawn in %.2fs (attempt %d of %d)" c.id
          backoff (c.respawns + 1) cfg.respawn_budget)

type mesh = {
  victim : (int * Mux.realized list) option;
  node_stats : (int * Stats.t) list;
  respawned : (int * int) list;
}

(* Spawn the engines, wait for every mesh handshake, run [drive] with an
   [on_idle] that pumps status pipes, answers the victim's SIGSTOP, and
   respawns killed engines, then drain final stats and tear everything
   down.  [run] and the soak / multi-client tests are all this skeleton
   with a different [drive]. *)
let with_mesh cfg drive =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.n < 2 then Error "serve fleet: need n >= 2"
  else if cfg.t < 0 || cfg.t >= cfg.n then Error "serve fleet: need 0 <= t < n"
  else begin
    let max_rounds =
      match cfg.max_rounds with Some m -> m | None -> cfg.t + 1
    in
    Live.Children.mkdir_p cfg.workspace;
    let kids = Live.Children.create () in
    let teardown () =
      Live.Children.teardown ~sockets:(cfg.transport, cfg.n) kids;
      List.iter
        (fun link -> Chaosproxy.cleanup ~transport:cfg.transport ~n:cfg.n link)
        cfg.chaos
    in
    (* Chaos proxies come up before any engine, so the first dial through
       an interposed link already finds its listener. *)
    let proxy_err =
      List.find_map
        (fun link ->
          match Chaosproxy.spawn ~transport:cfg.transport ~n:cfg.n link with
          | Ok pid ->
            vlog cfg "chaos proxy %d->%d up (pid %d)" link.Chaosproxy.src
              link.Chaosproxy.dst pid;
            Live.Children.adopt kids pid;
            None
          | Error e -> Some e)
        cfg.chaos
    in
    match proxy_err with
    | Some e ->
      teardown ();
      Error ("serve fleet: " ^ e)
    | None ->
      let wal_dir =
        if cfg.wal || cfg.respawn then Some cfg.workspace else None
      in
      let dial_for i =
        if cfg.chaos = [] then None
        else
          Some
            (fun p ->
              if
                List.exists
                  (fun l -> l.Chaosproxy.src = i && l.Chaosproxy.dst = p)
                  cfg.chaos
              then
                Chaosproxy.proxy_addr ~transport:cfg.transport ~n:cfg.n ~src:i
                  ~dst:p
              else Live.Sockets.addr_of ~transport:cfg.transport p)
      in
      let log i =
        Filename.concat cfg.workspace (Printf.sprintf "serve-%d.log" i)
      in
      let engine ~rejoin i status_w =
        let kill_after =
          match cfg.kill with
          | Some k when k.Report.node = i && not rejoin ->
            Some k.Report.after_frames
          | _ -> None
        in
        Engine.Rwwc.main
          {
            Engine.me = i;
            n = cfg.n;
            t = cfg.t;
            transport = cfg.transport;
            big_d = cfg.big_d;
            max_rounds;
            batch = cfg.batch;
            kill_after;
            linger = false;
            wal_dir;
            rejoin;
            dial = dial_for i;
            status = Unix.out_channel_of_descr status_w;
            log = open_out_gen [ Open_append; Open_creat ] 0o644 (log i);
          };
        0
      in
      let nodes =
        Array.init cfg.n (fun idx ->
            let i = idx + 1 in
            {
              proc =
                Live.Children.spawn kids ~log:(log i) ~id:i
                  (engine ~rejoin:false i);
              ready = false;
              realized = None;
              stats = None;
            })
      in
      vlog cfg "spawned %d engines" cfg.n;
      let pump timeout =
        Live.Children.pump kids ~timeout ~on_event:(fun c ->
            handle_event nodes.(c.Live.Children.id - 1))
      in
      (* Respawns stop once the drive is over: a victim dying during
         teardown stays down. *)
      let accepting = ref true in
      let maybe_respawn () =
        if !accepting then
          Array.iter
            (fun nd ->
              let c = nd.proc in
              if Live.Children.respawn_due c then begin
                Live.Children.respawn kids ~log:(log c.id) c
                  (engine ~rejoin:true c.id);
                nd.ready <- false;
                vlog cfg "node %d respawned (attempt %d of %d, pid %d)" c.id
                  c.respawns cfg.respawn_budget c.pid
              end)
            nodes
      in
      let body () =
        (* Startup: every engine reports ready once its mesh is up. *)
        let start_deadline = Live.Sockets.now () +. 15.0 in
        let rec wait_ready () =
          if Array.for_all (fun nd -> nd.ready) nodes then Ok ()
          else if Live.Sockets.now () > start_deadline then
            Error "serve fleet: startup timeout — not every engine became ready"
          else begin
            pump 0.05;
            if
              Array.exists
                (fun nd -> (not nd.ready) && Live.Children.reap nd.proc <> None)
                nodes
            then Error "serve fleet: an engine died during startup (see logs)"
            else wait_ready ()
          end
        in
        match wait_ready () with
        | Error e -> Error e
        | Ok () ->
          vlog cfg "all engines ready";
          let reap_all ~accepting =
            Array.iter (fun nd -> reap_one cfg ~accepting nd.proc) nodes
          in
          let on_idle () =
            pump 0.0;
            reap_all ~accepting:!accepting;
            maybe_respawn ()
          in
          (* A direct SIGKILL for drivers that storm the fleet with
             scheduled crashes ([--kill-every]); the reap path then
             applies the same respawn policy as a budget kill. *)
          let kill node =
            match Array.find_opt (fun nd -> nd.proc.id = node) nodes with
            | Some nd when nd.proc.exit = None ->
              vlog cfg "driver kills node %d (pid %d)" node nd.proc.pid;
              Live.Children.kill nd.proc
            | _ -> false
          in
          (match drive ~on_idle ~kill with
          | Error e -> Error e
          | Ok v ->
            accepting := false;
            (* Engines exit once the last client hangs up; drain their
               final stats events, answer a late SIGSTOP, then close
               out. *)
            let grace = Live.Sockets.now () +. 5.0 in
            while
              Array.exists (fun nd -> nd.proc.status <> None) nodes
              && Live.Sockets.now () < grace
            do
              pump 0.05;
              reap_all ~accepting:false
            done;
            reap_all ~accepting:false;
            let collect f = List.filter_map f (Array.to_list nodes) in
            let victim =
              List.find_map
                (fun nd -> Option.map (fun rs -> (nd.proc.id, rs)) nd.realized)
                (Array.to_list nodes)
            in
            let node_stats =
              collect (fun nd -> Option.map (fun s -> (nd.proc.id, s)) nd.stats)
            in
            let respawned =
              collect (fun { proc; _ } ->
                  if proc.respawns > 0 then Some (proc.id, proc.respawns)
                  else None)
            in
            Ok (v, { victim; node_stats; respawned }))
      in
      let result =
        try body ()
        with e -> Error ("serve fleet: " ^ Printexc.to_string e)
      in
      teardown ();
      result
  end

let default_timeout cfg =
  let max_rounds = match cfg.max_rounds with Some m -> m | None -> cfg.t + 1 in
  (* worst case: every window-batch burns the full deadline chain *)
  let batches = float_of_int ((cfg.instances / max 1 cfg.window) + 2) in
  (batches *. cfg.big_d *. float_of_int (max_rounds + 1)) +. 10.0

let run cfg =
  let timeout =
    match cfg.client_timeout with
    | Some s -> s
    | None -> default_timeout cfg
  in
  let drive ~on_idle ~kill:_ =
    let client_cfg =
      {
        Client.n = cfg.n;
        transport = cfg.transport;
        first = 0;
        load = Client.Count cfg.instances;
        window = cfg.window;
        proposals = cfg.proposals;
        timeout;
        reconnect = cfg.respawn;
      }
    in
    match Client.run ~on_idle client_cfg with
    | Error e -> Error ("serve fleet: client: " ^ e)
    | Ok outcome -> Ok outcome
  in
  match with_mesh cfg drive with
  | Error e -> Error e
  | Ok (outcome, mesh) ->
    Ok
      (Report.build ~n:cfg.n ~t:cfg.t ~proposals:cfg.proposals
         ~decisions:outcome.Client.decisions ~victim:mesh.victim
         ~send_plan:Live.Binding.Rwwc.send_plan ~elapsed:outcome.Client.elapsed
         ~latencies:outcome.Client.latencies ~stats:mesh.node_stats
         ~kill:cfg.kill)

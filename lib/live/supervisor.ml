open Model

type event =
  | Respawned of { node : int; attempt : int }
  | Absorbed of { node : int; at_round : int }

let pp_event ppf = function
  | Respawned { node; attempt } ->
    Format.fprintf ppf "node %d respawned (attempt %d)" node attempt
  | Absorbed { node; at_round } ->
    Format.fprintf ppf "node %d died unscripted in round %d; absorbed" node
      at_round

type transport = [ `Unix of string | `Tcp of string * int ]

type config = {
  n : int;
  t : int;
  script : Script.t;
  transport : transport;
  big_d : float;
  delta : float;
  proposals : int array option;
  max_rounds : int option;
  verbose : bool;
  respawn_budget : int;
  respawn_backoff : float;
  instrument : event Obs.Instrument.t;
  chaos_startup_kills : int list;
  chaos_run_kills : (int * float) list;
}

let config ?proposals ?max_rounds ?(verbose = false) ?(respawn_budget = 1)
    ?(respawn_backoff = 0.05) ?(instrument = Obs.Instrument.null)
    ?(chaos_startup_kills = []) ?(chaos_run_kills = []) ~n ~t ~script
    ~transport ~big_d ~delta () =
  {
    n;
    t;
    script;
    transport;
    big_d;
    delta;
    proposals;
    max_rounds;
    verbose;
    respawn_budget;
    respawn_backoff;
    instrument;
    chaos_startup_kills;
    chaos_run_kills;
  }

let workspace cfg = match cfg.transport with `Unix d -> d | `Tcp (d, _) -> d

let node_transport cfg =
  match cfg.transport with `Unix d -> `Unix d | `Tcp (_, base) -> `Tcp base

let vlog cfg fmt =
  Printf.ksprintf
    (fun s -> if cfg.verbose then Printf.eprintf "live: %s\n%!" s)
    fmt

type node = {
  proc : Children.child;
  mutable go : Unix.file_descr option;  (* write end of the go pipe *)
  mutable rounds : Transcript.round_obs list;  (* newest first *)
  mutable decided : (int * int) option;  (* value, round *)
  mutable undecided_evt : bool;
  mutable ready : bool;
  mutable final : Transcript.status option;
}

let handle_event nd j =
  let int k =
    match Obs.Json.member k j with Some (Obs.Json.Int i) -> Some i | _ -> None
  in
  let flt k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  match Obs.Json.member "event" j with
  | Some (Obs.Json.String "ready") -> nd.ready <- true
  | Some (Obs.Json.String "round") -> (
    match (int "round", int "data_recv", int "ctl_recv") with
    | Some round, Some data_recv, Some ctl_recv ->
      nd.rounds <-
        {
          Transcript.round;
          open_skew = flt "open_skew";
          close_skew = flt "close_skew";
          data_recv;
          ctl_recv;
        }
        :: nd.rounds
    | _ -> ())
  | Some (Obs.Json.String "decide") -> (
    match (int "value", int "round") with
    | Some v, Some r -> nd.decided <- Some (v, r)
    | _ -> ())
  | Some (Obs.Json.String "undecided") -> nd.undecided_evt <- true
  | _ -> ()

let last_round nd =
  match nd.rounds with [] -> 0 | r :: _ -> r.Transcript.round

let finalize cfg nd obs =
  match obs with
  | `Stop_killed -> (
    match Script.find cfg.script (Pid.of_int nd.proc.Children.id) with
    | Some k -> Transcript.Killed { at_round = k.Script.round; scripted = true }
    | None ->
      Transcript.Killed { at_round = last_round nd + 1; scripted = false })
  | `Exited 0 -> (
    match nd.decided with
    | Some (value, at_round) -> Transcript.Decided { value; at_round }
    | None ->
      if nd.undecided_evt then Transcript.Undecided
      else Transcript.Killed { at_round = last_round nd + 1; scripted = false })
  | `Exited _ | `Signaled _ ->
    Transcript.Killed { at_round = last_round nd + 1; scripted = false }

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = cfg.n and t = cfg.t in
  if n < 2 then Error "live: need at least 2 nodes"
  else if t < 0 || t >= n then Error "live: need 0 <= t < n"
  else
    match Script.validate ~n ~max_kills:t cfg.script with
    | Error why -> Error ("live: " ^ why)
    | Ok () -> (
      let proposals =
        match cfg.proposals with
        | Some p -> p
        | None -> Sync_sim.Engine.distinct_proposals n
      in
      if Array.length proposals <> n then Error "live: proposals length <> n"
      else begin
        let max_rounds =
          match cfg.max_rounds with Some m -> m | None -> t + 2
        in
        let dir = workspace cfg in
        Children.mkdir_p dir;
        let kids = Children.create () in
        (* Fault-injection bookkeeping: how many more (re)spawns of each
           node are chaos victims. *)
        let startup_kills = Hashtbl.create 4 in
        List.iter
          (fun node ->
            Hashtbl.replace startup_kills node
              (1 + Option.value ~default:0 (Hashtbl.find_opt startup_kills node)))
          cfg.chaos_startup_kills;
        (* Every (re)spawn gets a fresh go pipe.  The parent keeps the write
           end registered, so each later child closes it.  A chaos victim is
           chosen here, at launch, and kills itself before it listens or
           dials: no peer can have connected to a life that never started. *)
        let launch i spawn =
          let victim =
            match Hashtbl.find_opt startup_kills i with
            | Some k when k > 0 ->
              Hashtbl.replace startup_kills i (k - 1);
              vlog cfg "chaos: node %d dies during startup" i;
              true
            | Some _ | None -> false
          in
          let go_r, go_w = Unix.pipe () in
          Children.register kids go_w;
          let log = Filename.concat dir (Printf.sprintf "node-%d.log" i) in
          let spawned =
            spawn ~log (fun status_w ->
                if victim then Unix.kill (Unix.getpid ()) Sys.sigkill;
                Node.Rwwc.main
                  {
                    Node.me = i;
                    n;
                    t;
                    proposal = proposals.(i - 1);
                    transport = node_transport cfg;
                    big_d = cfg.big_d;
                    delta = cfg.delta;
                    max_rounds;
                    kill = Script.find cfg.script (Pid.of_int i);
                    status = Unix.out_channel_of_descr status_w;
                    go = Unix.in_channel_of_descr go_r;
                    log = open_out log;
                  };
                0)
          in
          Unix.close go_r;
          (spawned, go_w)
        in
        let nodes =
          Array.init n (fun idx ->
              let i = idx + 1 in
              let proc, go =
                launch i (fun ~log body -> Children.spawn kids ~log ~id:i body)
              in
              {
                proc;
                go = Some go;
                rounds = [];
                decided = None;
                undecided_evt = false;
                ready = false;
                final = None;
              })
        in
        vlog cfg "spawned %d nodes" n;
        let pump timeout =
          Children.pump kids ~timeout ~on_event:(fun c ->
              handle_event nodes.(c.Children.id - 1))
        in
        (* The self-healing window: before the mesh forms, a fresh process
           can still take a dead one's place once its backoff has elapsed. *)
        let startup_step nd =
          let c = nd.proc in
          if nd.ready then None
          else if Children.respawn_due c then begin
            let (), go =
              launch c.id (fun ~log body -> Children.respawn kids ~log c body)
            in
            nd.go <- Some go;
            vlog cfg "node %d respawned (attempt %d of %d)" c.id c.respawns
              cfg.respawn_budget;
            Obs.Instrument.emit cfg.instrument
              (Respawned { node = c.id; attempt = c.respawns });
            None
          end
          else
            match Children.reap c with
            | None -> None
            | Some _ -> (
              match
                Children.schedule_respawn c ~budget:cfg.respawn_budget
                  ~base:cfg.respawn_backoff
              with
              | None ->
                Some
                  (Printf.sprintf
                     "live: node %d died %d times during startup (respawn \
                      budget %d exhausted)"
                     c.id (c.respawns + 1) cfg.respawn_budget)
              | Some backoff ->
                vlog cfg "node %d died during startup; respawning in %.2fs"
                  c.id backoff;
                Children.close_status kids c;
                Option.iter (Children.release kids) nd.go;
                nd.go <- None;
                None)
        in
        let wait_ready () =
          let deadline = Sockets.now () +. 15.0 in
          let rec go () =
            if Array.for_all (fun nd -> nd.ready) nodes then Ok ()
            else if Sockets.now () > deadline then
              Error "live: startup timeout — not every node became ready"
            else begin
              pump 0.05;
              match Array.find_map startup_step nodes with
              | Some e -> Error e
              | None -> go ()
            end
          in
          go ()
        in
        let body () =
          match wait_ready () with
          | Error e -> Error e
          | Ok () ->
            let t0 = Sockets.now () +. 0.3 in
            vlog cfg "all nodes ready; t0 in 0.3 s";
            let line = Printf.sprintf "go %.6f\n" t0 in
            Array.iter
              (fun nd ->
                Option.iter
                  (fun fd ->
                    let len = String.length line in
                    try ignore (Unix.write_substring fd line 0 len)
                    with Unix.Unix_error _ -> ())
                  nd.go)
              nodes;
            let period = cfg.big_d +. cfg.delta in
            let watchdog =
              t0 +. (float_of_int max_rounds *. period) +. cfg.big_d +. 2.0
            in
            let unresolved () =
              Array.exists (fun nd -> nd.final = None) nodes
            in
            let record_final nd st =
              (match st with
              | Transcript.Killed { at_round; scripted = false } ->
                Obs.Instrument.emit cfg.instrument
                  (Absorbed { node = nd.proc.Children.id; at_round })
              | Transcript.Killed _ | Transcript.Decided _ | Transcript.Undecided
                ->
                ());
              nd.final <- Some st
            in
            let run_kills = ref cfg.chaos_run_kills in
            let fire_run_kills () =
              run_kills :=
                List.filter
                  (fun (node, delay) ->
                    if Sockets.now () >= t0 +. delay then begin
                      Array.iter
                        (fun nd ->
                          let c = nd.proc in
                          if c.id = node && c.exit = None then begin
                            vlog cfg "chaos: SIGKILL node %d at t0+%.2fs" node
                              delay;
                            ignore (Children.kill c)
                          end)
                        nodes;
                      false
                    end
                    else true)
                  !run_kills
            in
            while unresolved () && Sockets.now () < watchdog do
              fire_run_kills ();
              pump 0.05;
              Array.iter
                (fun nd ->
                  let c = nd.proc in
                  if nd.final = None then begin
                    (* the scripted crash point: the node's self-stop was
                       answered with the real kill *)
                    if Children.reap c = Some `Stop_killed then
                      vlog cfg "node %d stopped at its kill point; SIGKILL"
                        c.id;
                    match c.exit with
                    | Some obs when c.status = None ->
                      let st = finalize cfg nd obs in
                      vlog cfg "node %d: %s" c.id
                        (match st with
                        | Transcript.Decided { value; at_round } ->
                          Printf.sprintf "decided %d in round %d" value at_round
                        | Transcript.Killed { at_round; scripted } ->
                          Printf.sprintf "killed in round %d (%s)" at_round
                            (if scripted then "scripted" else "unscripted")
                        | Transcript.Undecided -> "undecided");
                      record_final nd st
                    | _ -> ()
                  end)
                nodes
            done;
            (* watchdog: anything still unresolved gets drained once more;
               teardown kills the stragglers *)
            pump 0.05;
            Array.iter
              (fun nd ->
                if nd.final = None then
                  match nd.proc.exit with
                  | None ->
                    vlog cfg "node %d past the watchdog; SIGKILL" nd.proc.id;
                    nd.final <-
                      Some
                        (match nd.decided with
                        | Some (value, at_round) ->
                          Transcript.Decided { value; at_round }
                        | None -> Transcript.Undecided)
                  | Some obs -> record_final nd (finalize cfg nd obs))
              nodes;
            let statuses =
              Array.map
                (fun nd -> Option.value nd.final ~default:Transcript.Undecided)
                nodes
            in
            let rounds = Array.map (fun nd -> List.rev nd.rounds) nodes in
            let max_round =
              Array.fold_left
                (fun acc nd ->
                  let from_status =
                    match nd.final with
                    | Some (Transcript.Decided { at_round; _ })
                    | Some (Transcript.Killed { at_round; _ }) ->
                      at_round
                    | _ -> 0
                  in
                  max acc (max from_status (last_round nd)))
                0 nodes
            in
            let tr =
              { Transcript.n; t; proposals; statuses; rounds; max_round }
            in
            let schedule =
              Script.to_schedule
                ~send_plan:(Binding.Rwwc.send_plan ~n)
                cfg.script
            in
            Ok (tr, Judge.judge ~schedule tr)
        in
        let result =
          try body ()
          with e -> Error ("live: supervisor: " ^ Printexc.to_string e)
        in
        Children.teardown ~sockets:(node_transport cfg, n) kids;
        result
      end)

(** EXP-RECOVER — crash-recovery for consensus-as-a-service.

    Drives a real socket fleet through a kill x partition x restart grid
    and demands zero wrong verdicts in every cell: a mid-storm SIGKILL
    victim is respawned by the fleet supervisor, replays its durable
    decision WAL, catches up over the mesh, and the reconnecting client
    fills its verdict column back in — while a chaos proxy cuts mesh
    links under the storm.

    The chaos stays inside the crash-model's safe envelope on purpose:
    cuts are shorter than big_d, so a partition surfaces as delay (TCP
    backpressure, then delivery), never as message loss between two live
    nodes — a link that silently dies between correct processes is an
    omission fault the synchronous crash model does not claim to
    survive.  Resets and corruption are exercised at the unit level
    ({!Serve.Chaosproxy} tests) where the assertion is about fault
    mechanics, not agreement.

    The WAL column is read back from the victim's on-disk log after the
    fleet is torn down: the decisions a client saw are the decisions
    that survived the process. *)

let workspace name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sync-agreement-exp-recover-%d-%s" (Unix.getpid ()) name)
  in
  Live.Children.mkdir_p dir;
  dir

type cell = {
  settled : int;
  undecided : int;
  wrong : int;  (** instances with conflicting decided values *)
  reconnects : int;
  respawns : int;
  wal_entries : int;  (** victim's WAL after teardown; -1 = no WAL *)
}

let run_cell ~tag ?kill ?(chaos = []) ~instances () =
  let dir = workspace tag in
  let respawn = kill <> None in
  let n = 3 in
  let cfg =
    {
      Serve.Fleet.n;
      t = 1;
      transport = `Unix dir;
      workspace = dir;
      instances;
      window = 16;
      big_d = 0.3;
      batch = true;
      backend = Serve.Evloop.Poll;
      kill;
      max_rounds = None;
      proposals = (fun i node -> (i * n) + node);
      client_timeout = None;
      respawn;
      respawn_budget = 3;
      respawn_backoff = 0.2;
      wal = true;
      chaos;
      verbose = false;
    }
  in
  let result =
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        Serve.Client.run ~on_idle
          {
            Serve.Client.n;
            transport = cfg.Serve.Fleet.transport;
            first = 0;
            load = Serve.Client.Count instances;
            window = cfg.Serve.Fleet.window;
            proposals = cfg.Serve.Fleet.proposals;
            timeout = Serve.Fleet.default_timeout cfg;
            reconnect = respawn;
          })
  in
  match result with
  | Error e -> failwith (Printf.sprintf "EXP-RECOVER: %s: %s" tag e)
  | Ok (outcome, mesh) ->
    let wrong = ref 0 in
    Array.iter
      (fun per_node ->
        let values =
          Array.to_list per_node
          |> List.filter_map (Option.map fst)
          |> List.sort_uniq compare
        in
        if List.length values > 1 then incr wrong)
      outcome.Serve.Client.decisions;
    let wal_entries =
      match
        Serve.Wal.load ~path:(Serve.Wal.path ~dir ~node:1) ~node:1
      with
      | Ok r -> List.length r.Serve.Wal.entries
      | Error _ -> -1
    in
    {
      settled = instances - List.length outcome.Serve.Client.undecided;
      undecided = List.length outcome.Serve.Client.undecided;
      wrong = !wrong;
      reconnects = outcome.Serve.Client.reconnects;
      respawns =
        List.fold_left (fun a (_, k) -> a + k) 0 mesh.Serve.Fleet.respawned;
      wal_entries;
    }

let require_clean label c =
  if c.wrong > 0 then
    failwith
      (Printf.sprintf "EXP-RECOVER: %s: %d wrong verdict(s)" label c.wrong);
  if c.undecided > 0 then
    failwith
      (Printf.sprintf "EXP-RECOVER: %s: %d undecided instance(s)" label
         c.undecided);
  c

let safe_cuts ~seed =
  (* Three sub-big_d cuts inside the storm's opening seconds: delay-only
     partitions, per the envelope argument above. *)
  Serve.Chaosproxy.generate ~seed ~horizon:2.0 ~cuts:3 ~cut_len:0.08 ()

let grid_table () =
  let instances = 120 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "kill x partition x restart grid (socket fleet, n = 3, t = 1, %d \
            instances, WAL on): every cell must settle everything with \
            zero wrong verdicts"
           instances)
      ~header:
        [
          "kill";
          "chaos";
          "settled";
          "reconnects";
          "respawns";
          "victim WAL";
          "wrong";
          "verdict";
        ]
      ()
  in
  let cells =
    [
      ("none", "none", None, []);
      ( "p1@57f",
        "none",
        Some { Serve.Report.node = 1; after_frames = 57 },
        [] );
      ( "none",
        "3 cuts 1->2",
        None,
        [
          { Serve.Chaosproxy.src = 1; dst = 2; actions = safe_cuts ~seed:11 };
        ] );
      ( "p1@57f",
        "3 cuts 2->3",
        Some { Serve.Report.node = 1; after_frames = 57 },
        [
          { Serve.Chaosproxy.src = 2; dst = 3; actions = safe_cuts ~seed:23 };
        ] );
    ]
  in
  List.iteri
    (fun i (kill_label, chaos_label, kill, chaos) ->
      let label = Printf.sprintf "cell %d (%s/%s)" i kill_label chaos_label in
      let c =
        require_clean label
          (run_cell ~tag:(Printf.sprintf "grid%d" i) ?kill ~chaos ~instances ())
      in
      if kill <> None && c.respawns = 0 then
        failwith (Printf.sprintf "EXP-RECOVER: %s: victim never respawned" label);
      Diag.Table.add_row table
        [
          kill_label;
          chaos_label;
          Diag.Table.fmt_int c.settled;
          Diag.Table.fmt_int c.reconnects;
          Diag.Table.fmt_int c.respawns;
          Diag.Table.fmt_int c.wal_entries;
          Diag.Table.fmt_int c.wrong;
          "pass";
        ])
    cells;
  table

let restart_sweep_table () =
  (* The restart axis alone, swept across kill points: early (mesh barely
     warm), mid-storm, and late (most instances already decided — the WAL
     replay dominates the catch-up). *)
  let instances = 120 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "respawn sweep (socket fleet, n = 3, t = 1, %d instances): kill \
            p1 after k mesh frames, respawn + WAL replay + client reconnect"
           instances)
      ~header:
        [ "kill after"; "settled"; "reconnects"; "respawns"; "victim WAL"; "verdict" ]
      ()
  in
  List.iter
    (fun after_frames ->
      let label = Printf.sprintf "kill@%d" after_frames in
      let c =
        require_clean label
          (run_cell
             ~tag:(Printf.sprintf "sweep%d" after_frames)
             ~kill:{ Serve.Report.node = 1; after_frames }
             ~instances ())
      in
      Diag.Table.add_row table
        [
          Diag.Table.fmt_int after_frames;
          Diag.Table.fmt_int c.settled;
          Diag.Table.fmt_int c.reconnects;
          Diag.Table.fmt_int c.respawns;
          Diag.Table.fmt_int c.wal_entries;
          "pass";
        ])
    [ 1; 57; 157 ];
  table

let run () = [ grid_table (); restart_sweep_table () ]

let experiment =
  {
    Experiment.id = "RECOVER";
    title = "crash-recovery: WAL replay, respawn, reconnect, chaos links";
    paper_ref = "crash-prefix fault model as a live restart protocol";
    run;
  }

(* sync-agreement — command-line front end of the reproduction.

   Subcommands:
     run          run one consensus algorithm under a chosen adversary
     check        exhaustively model-check an algorithm for a small system
     live         run the algorithm as real OS processes over sockets,
                  with scripted process kills and a judged transcript
     experiments  regenerate the paper's tables (all or one by id)
     lower-bound  tightness certificate + truncation violation witness
     bivalency    valence analysis of the configuration graph
     snapshot     Chandy-Lamport demo run

   Every verifying subcommand (run, check, live, chaos, fuzz, shrink
   --replay) exits nonzero when a property is violated, a run is WRONG, or
   the engines disagree — CI asserts both directions of that contract. *)

open Cmdliner
open Model
open Sync_sim

(* --- shared helpers ------------------------------------------------------- *)

type algo = Rwwc | Flood | Early_stopping | Rwwc_on_classic

let algo_conv =
  Arg.enum
    [
      ("rwwc", Rwwc);
      ("flood", Flood);
      ("early-stopping", Early_stopping);
      ("rwwc-on-classic", Rwwc_on_classic);
    ]

let algo_model = function
  | Rwwc -> Model_kind.Extended
  | Flood | Early_stopping | Rwwc_on_classic -> Model_kind.Classic

type adversary = No_crash | Silent | Greedy | Random

let adversary_conv =
  Arg.enum
    [
      ("none", No_crash);
      ("silent", Silent);
      ("greedy", Greedy);
      ("random", Random);
    ]

let schedule_of ~adversary ~model ~n ~t ~f ~seed =
  match adversary with
  | No_crash -> Schedule.empty
  | Silent ->
    Adversary.Strategies.coordinator_killer ~n ~f ~style:Adversary.Strategies.Silent
  | Greedy ->
    Adversary.Strategies.coordinator_killer ~n ~f ~style:Adversary.Strategies.Greedy
  | Random ->
    Adversary.Strategies.random ~rng:(Prng.Rng.of_int seed) ~model ~n ~f
      ~max_round:(t + 1)

let algo_name = function
  | Rwwc -> "rwwc"
  | Flood -> "flood"
  | Early_stopping -> "early-stopping"
  | Rwwc_on_classic -> "rwwc-on-classic"

let adversary_name = function
  | No_crash -> "none"
  | Silent -> "silent"
  | Greedy -> "greedy"
  | Random -> "random"

(* Shared by shrink/fuzz/check/chaos: shrink a failing schedule against a
   pinned property, report the descent, optionally write + reload + replay
   a repro artifact. *)

let property_fails algo ~n ~t ~property schedule =
  let res = algo.Minimize.Algo.run ~n ~t schedule in
  List.exists
    (fun c -> c.Spec.Properties.name = property && not c.Spec.Properties.ok)
    (Minimize.Algo.checks algo ~t res)

let shrink_schedule algo ~n ~t ~property schedule =
  Minimize.Shrink.run ~reductions:Adversary.Enumerate.reductions
    ~still_fails:(property_fails algo ~n ~t ~property)
    schedule

let print_shrink_outcome ~property (o : Schedule.t Minimize.Shrink.outcome) =
  Format.printf "violated property: %s@." property;
  Format.printf "original  (weight %2d): %s@."
    (Adversary.Enumerate.weight o.Minimize.Shrink.original)
    (Schedule.to_string o.Minimize.Shrink.original);
  Format.printf "minimal   (weight %2d): %s@."
    (Adversary.Enumerate.weight o.Minimize.Shrink.minimal)
    (Schedule.to_string o.Minimize.Shrink.minimal);
  Format.printf
    "shrink: %d steps over %d candidates; 1-minimal (every single-step \
     reduction passes)@."
    o.Minimize.Shrink.steps o.Minimize.Shrink.candidates

(* Write the artifact, then read it back from disk and replay it from
   scratch — the artifact is only reported usable if the round trip
   re-derives the violation. *)
let save_and_verify_repro ~file repro =
  Minimize.Repro.save ~file repro;
  Format.printf "wrote %s@." file;
  match Minimize.Repro.load file with
  | Error err ->
    Format.eprintf "repro artifact failed to reload: %s@."
      (Minimize.Repro.load_error_to_string err);
    1
  | Ok loaded -> (
    match Minimize.Repro.replay loaded with
    | Ok details ->
      Format.printf "replayed %s: violation reproduced@." file;
      List.iter (fun d -> Format.printf "  %s@." d) details;
      0
    | Error why ->
      Format.eprintf "replayed %s: %s@." file why;
      1)

let status_json = function
  | Run_result.Decided { value; at_round } ->
    Obs.Json.Obj
      [
        ("state", Obs.Json.String "decided");
        ("value", Obs.Json.Int value);
        ("round", Obs.Json.Int at_round);
      ]
  | Run_result.Crashed { at_round } ->
    Obs.Json.Obj
      [ ("state", Obs.Json.String "crashed"); ("round", Obs.Json.Int at_round) ]
  | Run_result.Undecided -> Obs.Json.Obj [ ("state", Obs.Json.String "undecided") ]

let check_json (c : Spec.Properties.check) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String c.Spec.Properties.name);
      ("ok", Obs.Json.Bool c.Spec.Properties.ok);
      ("detail", Obs.Json.String c.Spec.Properties.detail);
    ]

let run_json ~algo ~adversary ~seed ~checks ~metrics res =
  Obs.Json.Obj
    [
      ("algorithm", Obs.Json.String (algo_name algo));
      ("adversary", Obs.Json.String (adversary_name adversary));
      ("seed", Obs.Json.Int seed);
      ("n", Obs.Json.Int res.Run_result.n);
      ("t", Obs.Json.Int res.Run_result.t);
      ("rounds", Obs.Json.Int res.Run_result.rounds_executed);
      ( "statuses",
        Obs.Json.List (Array.to_list (Array.map status_json res.Run_result.statuses))
      );
      ("checks", Obs.Json.List (List.map check_json checks));
      ( "metrics",
        match metrics with
        | Some m -> Obs.Metrics.to_json m
        | None -> Obs.Json.Null );
    ]

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let algo =
    Arg.(value & opt algo_conv Rwwc & info [ "a"; "algorithm" ] ~doc:"Algorithm: $(docv).")
  in
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of processes.") in
  let t = Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Resilience (default n-2).") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Crashes for the adversary.") in
  let adversary =
    Arg.(value & opt adversary_conv Silent & info [ "adversary" ] ~doc:"Crash adversary: $(docv).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record the event stream through a trace sink and print it.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Attach a metrics sink and print summary + per-round tables.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the run (statuses, checks, metrics) as one JSON object.")
  in
  let invariants =
    Arg.(value & flag
         & info [ "invariants" ]
             ~doc:"Also check the Figure 1 trace invariants (rwwc only).")
  in
  let go algo n t f adversary seed trace metrics json invariants =
    let t = Option.value t ~default:(max 1 (n - 2)) in
    let model = algo_model algo in
    let schedule = schedule_of ~adversary ~model ~n ~t ~f ~seed in
    let proposals = Harness.Workloads.distinct n in
    (* Observers are composed outside the engine: metrics and trace sinks on
       demand, the online invariant guard on every run. *)
    let m = if metrics || json then Some (Obs.Metrics.create ()) else None in
    let ts = if trace then Some (Obs.Trace_sink.create ()) else None in
    let online =
      Obs.Online_invariants.create ~check_termination:false ~n ~t ~proposals ()
    in
    let instrument =
      Obs.Instrument.compose_all
        [
          (match m with
          | Some m -> Obs.Metrics.instrument m
          | None -> Obs.Instrument.null);
          (match ts with
          | Some ts -> Obs.Trace_sink.instrument ts
          | None -> Obs.Instrument.null);
          Obs.Online_invariants.instrument online;
        ]
    in
    let cfg ?max_rounds schedule =
      Engine.config ?max_rounds ~record_trace:invariants ~instrument ~schedule
        ~n ~t ~proposals ()
    in
    let report ~bound ~extra_checks res =
      let checks = Spec.Properties.uniform_consensus ?bound res @ extra_checks in
      if json then
        print_endline
          (Obs.Json.to_string
             (run_json ~algo ~adversary ~seed ~checks ~metrics:m res))
      else begin
        Format.printf "%a@." Run_result.pp res;
        (match ts with
        | Some ts ->
          Format.printf "trace:@.%a@." Trace.pp
            (List.filter_map Trace.of_obs (Obs.Trace_sink.events ts))
        | None -> ());
        (match m with
        | Some m when metrics ->
          print_string (Diag.Table.render (Obs.Metrics.summary_table m));
          print_string (Diag.Table.render (Obs.Metrics.per_round_table m))
        | Some _ | None -> ());
        List.iter (fun c -> Format.printf "%a@." Spec.Properties.pp_check c) checks
      end;
      if Spec.Properties.all_ok checks then 0 else 1
    in
    try
      match algo with
      | Rwwc ->
        let res = Harness.Runners.Rwwc_runner.run (cfg schedule) in
        let extra_checks = if invariants then Spec.Figure1_invariants.all res else [] in
        report ~bound:(Some (Harness.Runners.f_actual res + 1)) ~extra_checks res
      | Flood ->
        let res = Harness.Runners.Flood_runner.run (cfg schedule) in
        report ~bound:(Some (t + 1)) ~extra_checks:[] res
      | Early_stopping ->
        let res = Harness.Runners.Es_runner.run (cfg schedule) in
        report
          ~bound:(Some (min (t + 1) (Harness.Runners.f_actual res + 2)))
          ~extra_checks:[] res
      | Rwwc_on_classic ->
        (* The schedule is interpreted in the extended model, then compiled. *)
        let ext_schedule =
          schedule_of ~adversary ~model:Model_kind.Extended ~n ~t ~f ~seed
        in
        let res =
          Harness.Runners.Compiled_runner.run
            (cfg ~max_rounds:(n * (t + 2))
               (Harness.Runners.Compiled.translate_schedule ~n ext_schedule))
        in
        report ~bound:None ~extra_checks:[] res
    with
    | Obs.Online_invariants.Violation msg ->
      Format.eprintf "online invariant violation: %s@." msg;
      1
    | Engine.Model_violation msg ->
      Format.eprintf
        "invalid combination: %s (greedy-style schedules need an \
         extended-model algorithm such as rwwc)@."
        msg;
      1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one consensus algorithm under an adversary.")
    Term.(const go $ algo $ n $ t $ f $ adversary $ seed $ trace $ metrics
          $ json $ invariants)

(* --- check ---------------------------------------------------------------- *)

(* Model-check a registry algorithm (including the deliberately broken
   ablations) by sweeping the full schedule space; a broken variant is
   expected to produce violations, and the nonzero exit is what CI asserts. *)
let check_registry algo ~n ~max_f ~max_round =
  let t = max 1 (n - 2) in
  let started = Unix.gettimeofday () in
  let checked = ref 0 in
  let violations = ref [] in
  Seq.iter
    (fun schedule ->
      incr checked;
      match Minimize.Algo.violation algo ~n ~t schedule with
      | Some c -> violations := (schedule, c) :: !violations
      | None -> ())
    (Adversary.Enumerate.schedules ~model:algo.Minimize.Algo.model ~n ~max_f
       ~max_round);
  let elapsed = Unix.gettimeofday () -. started in
  let violations = List.rev !violations in
  let shown, hidden =
    match violations with
    | a :: b :: c :: d :: e :: rest -> ([ a; b; c; d; e ], List.length rest)
    | vs -> (vs, 0)
  in
  List.iter
    (fun (schedule, c) ->
      Format.printf "VIOLATION on %s@.  %a@."
        (Schedule.to_string schedule)
        Spec.Properties.pp_check c)
    shown;
  if hidden > 0 then Format.printf "... and %d more violations@." hidden;
  Format.printf "checked %d schedules in %.3fs, %d violations@." !checked
    elapsed (List.length violations);
  (match violations with
  | [] -> ()
  | (schedule, c) :: _ ->
    let property = c.Spec.Properties.name in
    let outcome = shrink_schedule algo ~n ~t ~property schedule in
    Format.printf "shrinking first violation:@.";
    print_shrink_outcome ~property outcome);
  if violations = [] then 0 else 1

(* --- distributed check ----------------------------------------------------- *)

(* `check --serve` / `check --worker`: the same canonical sweep as the
   in-process check, sharded over worker processes (local or remote) with
   leases, checkpoints and resume — lib/dist does the heavy lifting, this
   is argument plumbing and reporting. *)

let parse_dist_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S: expected unix:PATH or tcp:PORT" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" when rest <> "" -> Ok (Unix.ADDR_UNIX rest)
    | "tcp" -> (
      match int_of_string_opt rest with
      | Some port when port > 0 && port < 65536 ->
        Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      | Some _ | None -> Error (Printf.sprintf "bad port in %S" s))
    | _ -> Error (Printf.sprintf "bad address %S: expected unix:PATH or tcp:PORT" s))

let print_dist_violations (report : Dist.Coordinator.report) =
  let shown, hidden =
    match report.Dist.Coordinator.violations with
    | a :: b :: c :: d :: e :: rest -> ([ a; b; c; d; e ], List.length rest)
    | vs -> (vs, 0)
  in
  List.iter
    (fun (v : Dist.Protocol.violation) ->
      Format.printf "VIOLATION on %s@.  [FAIL] %s: %s@."
        (Schedule.to_string v.Dist.Protocol.schedule)
        v.Dist.Protocol.property v.Dist.Protocol.detail)
    shown;
  let unreported =
    report.Dist.Coordinator.violations_total
    - List.length report.Dist.Coordinator.violations
  in
  if hidden + unreported > 0 then
    Format.printf "... and %d more violations@." (hidden + unreported)

let dist_serve ~algo_str ~n ~max_f ~max_round ~symmetry ~shards ~lease_timeout
    ~checkpoint ~report_file ~spawn ~kill_one_after ~verbose addr_str =
  match parse_dist_addr addr_str with
  | Error why ->
    Format.eprintf "%s@." why;
    2
  | Ok addr -> (
    match Minimize.Algo.find algo_str with
    | Error why ->
      Format.eprintf "%s@." why;
      2
    | Ok _ ->
      (* Shard count: explicit wins; otherwise oversharded to the spawned
         worker count so a straggling or dying worker leaves only small
         leases behind; 64 when the workers are remote and unknown. *)
      let shards =
        match shards with
        | Some s -> s
        | None ->
          if spawn > 0 then begin
            let s = Dist.Fleet.auto_shards ~workers:spawn () in
            Format.printf
              "shards: auto-sized to %d (%d local workers, straggler factor \
               8)@."
              s spawn;
            s
          end
          else 64
      in
      let job =
        {
          Dist.Protocol.algo = algo_str;
          n;
          max_f;
          max_round;
          shards;
          symmetry;
          heartbeat_every = Float.max 0.1 (lease_timeout /. 4.0);
        }
      in
      let started = Unix.gettimeofday () in
      let outcome =
        if spawn > 0 then
          match
            Dist.Fleet.run_local ~lease_timeout ?checkpoint ~verbose
              ?kill_one_after ~workers:spawn ~addr job
          with
          | Error why -> Error why
          | Ok o ->
            Ok
              ( o.Dist.Fleet.report,
                o.Dist.Fleet.worker_failures,
                o.Dist.Fleet.chaos_deaths )
        else
          match
            Dist.Coordinator.serve
              (Dist.Coordinator.config ~lease_timeout ?checkpoint ~verbose
                 ~addr job)
          with
          | Error why -> Error why
          | Ok report -> Ok (report, 0, 0)
      in
      let elapsed = Unix.gettimeofday () -. started in
      (match outcome with
      | Error why ->
        Format.eprintf "serve: %s@." why;
        2
      | Ok (report, worker_failures, chaos_deaths) ->
        print_dist_violations report;
        Format.printf
          "distributed: %d shards (%d executed, %d resumed, %d regrants, %d \
           duplicate results)@."
          report.Dist.Coordinator.shards_total
          (List.length report.Dist.Coordinator.executed)
          (List.length report.Dist.Coordinator.resumed)
          report.Dist.Coordinator.regrants report.Dist.Coordinator.duplicates;
        if chaos_deaths > 0 then
          Format.printf "chaos: absorbed %d scripted worker death%s@."
            chaos_deaths
            (if chaos_deaths = 1 then "" else "s");
        Format.printf "checked %d schedules in %.3fs, %d violations@."
          report.Dist.Coordinator.classes elapsed
          report.Dist.Coordinator.violations_total;
        (match report_file with
        | None -> ()
        | Some file ->
          Obs.Json.save_atomic ~file (Dist.Coordinator.report_to_json report);
          Format.printf "wrote %s@." file);
        if worker_failures > 0 then begin
          Format.eprintf "%d worker(s) failed unscripted@." worker_failures;
          2
        end
        else if report.Dist.Coordinator.violations_total > 0 then 1
        else 0))

let dist_worker ~patience ~die_after ~die_on_grant ~verbose addr_str =
  match parse_dist_addr addr_str with
  | Error why ->
    Format.eprintf "%s@." why;
    2
  | Ok addr -> (
    let chaos =
      { Dist.Worker.die_on_grant; die_after_schedules = die_after }
    in
    match Dist.Worker.run ~patience ~chaos ~verbose ~addr () with
    | Ok shards ->
      Format.printf "worker done: %d shards completed@." shards;
      0
    | Error why ->
      Format.eprintf "worker: %s@." why;
      3)

let check_cmd =
  let algo =
    Arg.(value & opt string "rwwc"
         & info [ "a"; "algo"; "algorithm" ]
             ~doc:
               (Printf.sprintf
                  "Algorithm: a built-in (rwwc, flood, early-stopping) or any \
                   registry name, including the broken ablations (%s)."
                  (String.concat ", " Minimize.Algo.names)))
  in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of processes (keep small).") in
  let max_f = Arg.(value & opt int 2 & info [ "max-f" ] ~doc:"Max crashes to enumerate.") in
  let max_round =
    Arg.(value & opt int 3 & info [ "max-round" ] ~doc:"Latest crash round to enumerate.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~doc:"Worker domains for the search.")
  in
  let no_symmetry =
    Arg.(value & flag
         & info [ "no-symmetry" ]
             ~doc:"Sweep the full schedule space instead of one representative \
                   per symmetry class.")
  in
  let serve =
    Arg.(value & opt (some string) None
         & info [ "serve" ] ~docv:"ADDR"
             ~doc:"Coordinate a distributed sweep on $(docv) (unix:PATH or \
                   tcp:PORT), sharding the enumeration over connecting \
                   workers with leases and a durable checkpoint.")
  in
  let worker =
    Arg.(value & opt (some string) None
         & info [ "worker" ] ~docv:"ADDR"
             ~doc:"Run as a sweep worker against the coordinator at $(docv).")
  in
  let shards =
    Arg.(value & opt (some int) None
         & info [ "shards" ]
             ~doc:
               "Residue-class shards for --serve (default: auto-sized to 8x \
                the --spawn worker count, or 64 without --spawn).")
  in
  let lease_timeout =
    Arg.(value & opt float 5.0
         & info [ "lease-timeout" ]
             ~doc:"Seconds of worker silence before a leased shard is \
                   revoked and re-granted (--serve).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Durable sweep checkpoint: written after every accepted \
                   shard, loaded on restart so finished shards never re-run \
                   (--serve).")
  in
  let report_file =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Also write the final report (classes, violations, shard \
                   accounting) as JSON to $(docv) (--serve).")
  in
  let spawn =
    Arg.(value & opt int 0
         & info [ "spawn" ]
             ~doc:"With --serve: also fork $(docv) local worker processes.")
  in
  let kill_one_after =
    Arg.(value & opt (some int) None
         & info [ "kill-one-after" ] ~docv:"K"
             ~doc:"Chaos (with --serve --spawn): the first spawned worker \
                   dies mid-shard after checking $(docv) schedules; the \
                   fleet must absorb it.")
  in
  let die_after =
    Arg.(value & opt (some int) None
         & info [ "die-after" ] ~docv:"K"
             ~doc:"Chaos (with --worker): _exit mid-shard after checking \
                   $(docv) schedules.")
  in
  let die_on_grant =
    Arg.(value & opt (some int) None
         & info [ "die-on-grant" ] ~docv:"K"
             ~doc:"Chaos (with --worker): _exit upon receiving the $(docv)-th \
                   lease, without returning its result.")
  in
  let patience =
    Arg.(value & opt float 30.0
         & info [ "patience" ]
             ~doc:"Worker reconnect budget per disconnected spell, in \
                   seconds (--worker).")
  in
  let dist_verbose =
    Arg.(value & flag
         & info [ "dist-verbose" ]
             ~doc:"Log coordinator/worker protocol events to stderr.")
  in
  let rec go algo_str n max_f max_round domains no_symmetry serve worker shards
      lease_timeout checkpoint report_file spawn kill_one_after die_after
      die_on_grant patience dist_verbose =
    match (serve, worker) with
    | Some _, Some _ ->
      Format.eprintf "check: --serve and --worker are mutually exclusive@.";
      2
    | None, Some addr ->
      dist_worker ~patience ~die_after ~die_on_grant ~verbose:dist_verbose addr
    | _, None when max_f > max 1 (n - 2) ->
      (* every check path runs with t = max 1 (n - 2) *)
      Format.eprintf "check: --max-f %d exceeds t = %d for n = %d@." max_f
        (max 1 (n - 2)) n;
      2
    | Some addr, None ->
      dist_serve ~algo_str ~n ~max_f ~max_round ~symmetry:(not no_symmetry)
        ~shards ~lease_timeout ~checkpoint ~report_file ~spawn ~kill_one_after
        ~verbose:dist_verbose addr
    | None, None -> go_local algo_str n max_f max_round domains no_symmetry
  and go_local algo_str n max_f max_round domains no_symmetry =
    let builtin =
      List.assoc_opt algo_str
        [
          ("rwwc", Rwwc);
          ("flood", Flood);
          ("early-stopping", Early_stopping);
          ("rwwc-on-classic", Rwwc_on_classic);
        ]
    in
    match builtin with
    | None -> (
      match Minimize.Algo.find algo_str with
      | Error why ->
        Format.eprintf "%s@." why;
        2
      | Ok malgo -> check_registry malgo ~n ~max_f ~max_round)
    | Some algo ->
    let t = max 1 (n - 2) in
    let model = algo_model algo in
    let proposals = Harness.Workloads.distinct n in
    let profile =
      match algo with
      | Rwwc -> Adversary.Canonical.rotating_coordinator ~n
      | Flood | Early_stopping -> Adversary.Canonical.broadcast ~n ~t
      | Rwwc_on_classic ->
        failwith "check: use rwwc and the transform tests instead"
    in
    let full_size = Adversary.Enumerate.space_size ~model ~n ~max_f ~max_round in
    (* The space is never materialized: each worker domain folds its own
       lazy residue-class slice of the stream with a preallocated engine
       runner, so memory stays O(violations) however large the sweep. *)
    let enumerate () =
      if no_symmetry then Adversary.Enumerate.schedules ~model ~n ~max_f ~max_round
      else Adversary.Canonical.schedules profile ~n ~max_f ~max_round
    in
    let sweep ~shards ~shard =
      let cfg = Engine.config ~n ~t ~proposals () in
      let verdict =
        match algo with
        | Rwwc ->
          let run = Harness.Runners.Rwwc_runner.runner cfg in
          fun schedule ->
            let res = run schedule in
            Spec.Properties.uniform_consensus
              ~bound:(Harness.Runners.f_actual res + 1)
              res
        | Flood ->
          let run = Harness.Runners.Flood_runner.runner cfg in
          fun schedule ->
            Spec.Properties.uniform_consensus ~bound:(t + 1) (run schedule)
        | Early_stopping ->
          let run = Harness.Runners.Es_runner.runner cfg in
          fun schedule ->
            let res = run schedule in
            Spec.Properties.uniform_consensus
              ~bound:(min (t + 1) (Harness.Runners.f_actual res + 2))
              res
        | Rwwc_on_classic -> assert false (* rejected above *)
      in
      Seq.fold_left
        (fun (checked, violations) schedule ->
          let checks = verdict schedule in
          ( checked + 1,
            if Spec.Properties.all_ok checks then violations
            else (schedule, Spec.Properties.failures checks) :: violations ))
        (0, [])
        (Adversary.Enumerate.shard ~shards ~shard (enumerate ()))
    in
    let started = Unix.gettimeofday () in
    let per_shard = Parallel.Pool.shards ~domains sweep in
    let elapsed = Unix.gettimeofday () -. started in
    let checked = List.fold_left (fun acc (c, _) -> acc + c) 0 per_shard in
    let violations =
      List.concat_map (fun (_, vs) -> List.rev vs) per_shard
      |> List.sort (fun (a, _) (b, _) -> Adversary.Canonical.compare a b)
    in
    List.iter
      (fun (schedule, failures) ->
        Format.printf "VIOLATION on %s@." (Schedule.to_string schedule);
        List.iter
          (fun c -> Format.printf "  %a@." Spec.Properties.pp_check c)
          failures)
      violations;
    if not no_symmetry then
      Format.printf
        "symmetry: %d classes cover a space of %d schedules (%.1fx reduction)@."
        checked full_size
        (float_of_int full_size /. float_of_int (max 1 checked));
    Format.printf "checked %d schedules in %.3fs (%.0f schedules/sec), %d violations@."
      checked elapsed
      (float_of_int checked /. Float.max elapsed 1e-9)
      (List.length violations);
    (* Any violation is also shrunk to a 1-minimal reproducer, so the report
       ends with the smallest schedule that still breaks the property. *)
    (match violations with
    | [] -> ()
    | (schedule, failures) :: _ -> (
      match
        (Minimize.Algo.find (algo_name algo), failures)
      with
      | Ok malgo, first_failure :: _ ->
        let property = first_failure.Spec.Properties.name in
        let outcome = shrink_schedule malgo ~n ~t ~property schedule in
        Format.printf "shrinking first violation:@.";
        print_shrink_outcome ~property outcome
      | Error _, _ | _, [] -> ()));
    if violations = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively model-check an algorithm over every crash schedule.")
    Term.(
      const go $ algo $ n $ max_f $ max_round $ domains $ no_symmetry $ serve
      $ worker $ shards $ lease_timeout $ checkpoint $ report_file $ spawn
      $ kill_one_after $ die_after $ die_on_grant $ patience $ dist_verbose)

(* --- experiments ---------------------------------------------------------- *)

let experiments_cmd =
  let id =
    Arg.(value & opt (some string) None & info [ "id" ] ~doc:"Run only experiment $(docv).")
  in
  let markdown = Arg.(value & flag & info [ "markdown" ] ~doc:"Markdown tables.") in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids.") in
  let csv_dir =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let write_csv dir e =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i table ->
        let file =
          Filename.concat dir
            (Printf.sprintf "exp-%s-%d.csv"
               (String.lowercase_ascii e.Harness.Experiment.id)
               (i + 1))
        in
        let oc = open_out file in
        output_string oc (Diag.Table.render_csv table);
        close_out oc;
        Format.printf "wrote %s@." file)
      (e.Harness.Experiment.run ())
  in
  let go id markdown list_only csv_dir =
    if list_only then begin
      List.iter
        (fun e ->
          Format.printf "%-5s %s (%s)@." e.Harness.Experiment.id
            e.Harness.Experiment.title e.Harness.Experiment.paper_ref)
        Harness.Registry.all;
      0
    end
    else begin
      let selected =
        match id with
        | None -> Ok Harness.Registry.all
        | Some id -> begin
          match Harness.Registry.find id with
          | Some e -> Ok [ e ]
          | None -> Error id
        end
      in
      match selected with
      | Error id ->
        Format.eprintf "unknown experiment %S; known: %s@." id
          (String.concat ", " Harness.Registry.ids);
        2
      | Ok experiments -> (
        (* Every experiment in its own child: see [Experiment.in_child]. *)
        let run =
          match csv_dir with
          | Some dir -> write_csv dir
          | None -> Harness.Experiment.print ~markdown
        in
        let rec go = function
          | [] -> 0
          | e :: rest -> (
            match Harness.Experiment.in_child e run with
            | Ok () -> go rest
            | Error why ->
              Format.eprintf "experiment failed: %s@." why;
              1)
        in
        go experiments)
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's evaluation tables.")
    Term.(const go $ id $ markdown $ list_only $ csv_dir)

(* --- lower-bound ---------------------------------------------------------- *)

let lower_bound_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of processes.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Crash budget / truncation round.") in
  let go n f =
    let module Ex = Lower_bound.Explorer.Make (Core.Rwwc) in
    let proposals = Harness.Workloads.distinct n in
    let cert = Ex.tightness ~n ~f ~proposals in
    Format.printf "tightness: with %d silent crashes the last decision is at round %d (= f+1: %b)@."
      f cert.Lower_bound.Explorer.max_decision_round
      (cert.Lower_bound.Explorer.max_decision_round = f + 1);
    (if f >= 1 && f <= n - 2 then
       match Ex.truncation_violation ~n ~decide_by:f ~proposals with
       | Some w ->
         Format.printf
           "impossibility: deciding by round %d breaks uniform agreement on %s \
            (decided: %s; %d schedules searched)@."
           f
           (Schedule.to_string w.Lower_bound.Explorer.schedule)
           (String.concat ","
              (List.map string_of_int
                 (Run_result.decided_values w.Lower_bound.Explorer.result)))
           w.Lower_bound.Explorer.schedules_searched
       | None -> Format.printf "impossibility: no witness found (unexpected)@.");
    0
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Certificates for the f+1 lower bound.")
    Term.(const go $ n $ f)

(* --- bivalency ------------------------------------------------------------ *)

let bivalency_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of processes (keep small).") in
  let t = Arg.(value & opt int 2 & info [ "t" ] ~doc:"Crash budget.") in
  let go n t =
    let module Biv = Lower_bound.Bivalency.Make (Core.Rwwc) in
    let report = Biv.analyze ~n ~t ~proposals:(Harness.Workloads.binary ~n ~zeros:1) () in
    Format.printf
      "n=%d t=%d proposals=0,1,..,1@.initial: %a@.max bivalent depth: %d@.decision inside a bivalent config: %b@.configs explored: %d@."
      n t Lower_bound.Bivalency.pp_valence
      report.Lower_bound.Bivalency.initial_valence
      report.Lower_bound.Bivalency.max_bivalent_depth
      report.Lower_bound.Bivalency.bivalent_with_decision
      report.Lower_bound.Bivalency.configs_explored;
    0
  in
  Cmd.v
    (Cmd.info "bivalency" ~doc:"Valence analysis of the configuration graph.")
    Term.(const go $ n $ t)

(* --- shrink --------------------------------------------------------------- *)

let shrink_cmd =
  let algo =
    Arg.(value & opt string "data-decide"
         & info [ "a"; "algo"; "algorithm" ]
             ~doc:
               (Printf.sprintf "Algorithm to shrink against: one of %s."
                  (String.concat ", " Minimize.Algo.names)))
  in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of processes (keep small).") in
  let max_f = Arg.(value & opt int 2 & info [ "max-f" ] ~doc:"Max crashes to enumerate.") in
  let max_round =
    Arg.(value & opt int 3 & info [ "max-round" ] ~doc:"Latest crash round to enumerate.")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ]
             ~doc:
               "Shrink the first failing random schedule drawn from this \
                seed (scanning forward) instead of the first failing \
                schedule of the exhaustive sweep.")
  in
  let repro =
    Arg.(value & opt (some string) None
         & info [ "repro" ] ~docv:"FILE"
             ~doc:
               "Write the minimal reproducer as a JSON artifact, reload it \
                and replay it.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay an existing repro artifact instead of shrinking.")
  in
  let go algo_name n max_f max_round seed repro replay =
    match replay with
    | Some file -> (
      match Minimize.Repro.load file with
      | Error err ->
        Format.eprintf "cannot load repro: %s@."
          (Minimize.Repro.load_error_to_string err);
        2
      | Ok r -> (
        Format.printf "%a@." Minimize.Repro.pp r;
        match Minimize.Repro.replay r with
        | Ok details ->
          Format.printf "violation reproduced:@.";
          List.iter (fun d -> Format.printf "  %s@." d) details;
          0
        | Error why ->
          Format.eprintf "%s@." why;
          1))
    | None -> (
      match Minimize.Algo.find algo_name with
      | Error why ->
        Format.eprintf "%s@." why;
        2
      | Ok algo -> (
        let t = max 1 (n - 2) in
        let failing =
          match seed with
          | None ->
            Minimize.Algo.first_violation algo ~n ~t ~max_f ~max_round
          | Some seed ->
            (* Scan seeds forward until a random schedule fails; broken
               variants usually fail within a handful of draws. *)
            let rec scan k =
              if k >= seed + 1000 then None
              else
                let rng = Prng.Rng.of_int k in
                let schedule =
                  Adversary.Strategies.random ~rng ~model:algo.Minimize.Algo.model
                    ~n
                    ~f:(Prng.Rng.int rng (max_f + 1))
                    ~max_round
                in
                match Minimize.Algo.violation algo ~n ~t schedule with
                | Some check -> Some (schedule, check)
                | None -> scan (k + 1)
            in
            scan seed
        in
        match failing with
        | None ->
          Format.printf
            "%s: no violating schedule found (n=%d, f<=%d, rounds<=%d)@."
            algo_name n max_f max_round;
          if algo.Minimize.Algo.broken then 1 else 0
        | Some (schedule, check) ->
          let property = check.Spec.Properties.name in
          let outcome = shrink_schedule algo ~n ~t ~property schedule in
          Format.printf "algorithm: %s (n=%d, t=%d)@." algo_name n t;
          print_shrink_outcome ~property outcome;
          (match
             Minimize.Algo.violation algo ~n ~t outcome.Minimize.Shrink.minimal
           with
          | Some c -> Format.printf "minimal reproducer fails: %a@." Spec.Properties.pp_check c
          | None -> Format.printf "BUG: minimal reproducer passes@.");
          (match repro with
          | None -> 0
          | Some file ->
            save_and_verify_repro ~file
              {
                Minimize.Repro.n;
                t;
                case =
                  Minimize.Repro.Consensus
                    {
                      algo = algo_name;
                      schedule = outcome.Minimize.Shrink.minimal;
                      property;
                    };
                steps = outcome.Minimize.Shrink.steps;
                candidates = outcome.Minimize.Shrink.candidates;
                one_minimal = true;
              })))
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Find a failing crash schedule (exhaustive sweep or seeded random), \
          shrink it to a 1-minimal counterexample, and optionally emit a \
          replayable --repro artifact.")
    Term.(const go $ algo $ n $ max_f $ max_round $ seed $ repro $ replay)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let runs =
    Arg.(value & opt int 60
         & info [ "runs" ] ~docv:"R" ~doc:"Random cases per lane (schedules and fault plans).")
  in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Processes for the schedule lane.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base random seed.") in
  let budget =
    Arg.(value & opt int 2
         & info [ "retry-budget" ] ~docv:"K"
             ~doc:"Retry budget for the masked-transport lane.")
  in
  let repro =
    Arg.(value & opt (some string) None
         & info [ "repro" ] ~docv:"FILE"
             ~doc:"On failure, write the shrunk reproducer artifact here.")
  in
  let go runs n seed budget repro =
    let t = max 1 (n - 2) in
    let max_round = t + 1 in
    (* Lane 1: random crash schedules through the cross-engine oracle. *)
    let schedule_failure = ref None in
    let k = ref 0 in
    while !schedule_failure = None && !k < runs do
      let rng = Prng.Rng.of_int (seed + !k) in
      let schedule =
        Adversary.Strategies.random ~rng ~model:Model_kind.Extended ~n
          ~f:(Prng.Rng.int rng (t + 1))
          ~max_round
      in
      (match Minimize.Oracle.check_schedule ~n ~t schedule with
      | Minimize.Oracle.Agree _ -> ()
      | Minimize.Oracle.Disagree { diffs; _ } ->
        schedule_failure := Some (schedule, diffs));
      incr k
    done;
    (* Lane 2: recorded random storms through the masked transport. *)
    let chaos_failure = ref None in
    let chaos_n = 6 in
    let storm k =
      let drop = [| 0.05; 0.15; 0.30 |].(k mod 3) in
      Adversary.Net_faults.network_storm ~drop ~duplicate:(drop /. 2.0)
        ~jitter:0.2 ~jitter_spread:2.5
        ~seed:(Int64.of_int (seed + 5000 + k))
        ()
    in
    let k = ref 0 in
    while !chaos_failure = None && !k < runs do
      let faults = Net.Fault_plan.recording (storm !k) in
      (match
         Minimize.Oracle.check_masked ~n:chaos_n ~budget ~faults
           ~seed:(Int64.of_int (seed + !k))
           ()
       with
      | Minimize.Oracle.Wrong why, _ ->
        let actions = Option.get (Net.Fault_plan.recorded faults) in
        chaos_failure := Some (seed + !k, actions, why)
      | (Minimize.Oracle.Masked | Minimize.Oracle.Detected _), _ -> ());
      incr k
    done;
    match (!schedule_failure, !chaos_failure) with
    | None, None ->
      Format.printf
        "fuzz: %d random schedules (n=%d) and %d recorded storms through the \
         differential oracle, no disagreement@."
        runs n runs;
      0
    | Some (schedule, diffs), _ ->
      Format.printf "fuzz: cross-engine DISAGREEMENT on %s@."
        (Schedule.to_string schedule);
      List.iter (fun d -> Format.printf "  %s@." d) diffs;
      let outcome =
        Minimize.Shrink.run ~reductions:Adversary.Enumerate.reductions
          ~still_fails:(fun s -> not (Minimize.Oracle.agrees ~n ~t s))
          schedule
      in
      Format.printf "minimal disagreeing schedule: %s (%d steps)@."
        (Schedule.to_string outcome.Minimize.Shrink.minimal)
        outcome.Minimize.Shrink.steps;
      (match repro with
      | None -> 1
      | Some file ->
        ignore
          (save_and_verify_repro ~file
             {
               Minimize.Repro.n;
               t;
               case =
                 Minimize.Repro.Cross_engine
                   { schedule = outcome.Minimize.Shrink.minimal };
               steps = outcome.Minimize.Shrink.steps;
               candidates = outcome.Minimize.Shrink.candidates;
               one_minimal = true;
             });
        1)
    | None, Some (engine_seed, actions, why) ->
      Format.printf "fuzz: masked transport WRONG (engine seed %d): %s@."
        engine_seed why;
      let wrong actions =
        match
          Minimize.Oracle.check_masked ~n:chaos_n ~budget
            ~faults:(Net.Fault_plan.scripted actions)
            ~seed:(Int64.of_int engine_seed) ()
        with
        | Minimize.Oracle.Wrong _, _ -> true
        | (Minimize.Oracle.Masked | Minimize.Oracle.Detected _), _ -> false
      in
      let outcome =
        Minimize.Shrink.run ~reductions:Minimize.Script.reductions
          ~still_fails:wrong actions
      in
      let minimal = Minimize.Script.trim outcome.Minimize.Shrink.minimal in
      Format.printf "minimal fault script: %d actions, %d faults (%d steps)@."
        (Array.length minimal)
        (Minimize.Script.weight minimal)
        outcome.Minimize.Shrink.steps;
      (match repro with
      | None -> 1
      | Some file ->
        ignore
          (save_and_verify_repro ~file
             {
               Minimize.Repro.n = chaos_n;
               t = chaos_n - 2;
               case =
                 Minimize.Repro.Chaos
                   {
                     budget;
                     engine_seed = Int64.of_int engine_seed;
                     actions = minimal;
                   };
               steps = outcome.Minimize.Shrink.steps;
               candidates = outcome.Minimize.Shrink.candidates;
               one_minimal = true;
             });
        1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing smoke: seeded random crash schedules and \
          recorded network storms through the conformance oracle \
          (engine-vs-runner-vs-timed-LAN, masked transport vs abstract \
          engine); auto-shrinks and writes a repro artifact on failure.")
    Term.(const go $ runs $ n $ seed $ budget $ repro)

(* --- chaos ---------------------------------------------------------------- *)

let chaos_cmd =
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of processes.") in
  let drop =
    Arg.(value & opt float 0.1
         & info [ "drop-rate" ] ~docv:"P"
             ~doc:"Per-message drop probability of the network storm.")
  in
  let dup =
    Arg.(value & opt (some float) None
         & info [ "dup-rate" ] ~docv:"P"
             ~doc:"Per-message duplication probability (default drop/2).")
  in
  let budget =
    Arg.(value & opt int 1
         & info [ "retry-budget" ] ~docv:"K"
             ~doc:"Retransmissions per unacked message before a round is \
                   declared lost.")
  in
  let runs =
    Arg.(value & opt int 50
         & info [ "runs" ] ~docv:"R" ~doc:"Soak: number of seeded runs.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base random seed.") in
  let go n drop dup budget runs seed =
    let dup = Option.value dup ~default:(drop /. 2.0) in
    let masked = ref 0 and detected = ref 0 and wrong = ref 0 in
    let injected = ref 0 in
    let sample = ref None in
    for k = 0 to runs - 1 do
      let faults =
        Adversary.Net_faults.network_storm ~drop ~duplicate:dup
          ~seed:(Int64.of_int (seed + 1000 + k))
          ()
      in
      let verdict, faults_injected =
        Harness.Exp_chaos.run_one ~n ~budget ~faults
          ~seed:(Int64.of_int (seed + k))
          ()
      in
      injected := !injected + faults_injected;
      match verdict with
      | Harness.Exp_chaos.Masked -> incr masked
      | Harness.Exp_chaos.Detected v ->
        incr detected;
        if !sample = None then sample := Some v
      | Harness.Exp_chaos.Wrong why ->
        incr wrong;
        Format.printf "WRONG (payload seed %d, fault seed %d): %s@." (seed + k)
          (seed + 1000 + k) why;
        (* Run k of this soak draws payload seed [seed + k] and fault seed
           [seed + 1000 + k]; a single-run soak based at [seed + k]
           regenerates both streams exactly. *)
        Format.printf
          "  reproduce with: sync-agreement chaos --runs 1 -n %d --drop-rate \
           %g --dup-rate %g --retry-budget %d --seed %d@."
          n drop dup budget (seed + k)
    done;
    Format.printf
      "chaos soak: n=%d drop=%.2f dup=%.2f retry-budget=%d runs=%d@." n drop
      dup budget runs;
    Format.printf
      "  masked %d, detected %d, wrong %d (%d faults injected)@." !masked
      !detected !wrong !injected;
    (match !sample with
    | Some v ->
      Format.printf "  sample report: %s@." (Net.Synchrony_violation.to_string v)
    | None -> ());
    if !wrong = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak the fault-masking LAN transport under an unreliable network: \
          every run must either match the abstract engine or abort with a \
          structured synchrony-violation report.")
    Term.(const go $ n $ drop $ dup $ budget $ runs $ seed)

(* --- live ----------------------------------------------------------------- *)

let rec ensure_dir dir =
  if dir <> "/" && dir <> "." && dir <> "" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let live_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of node processes.") in
  let t =
    Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Resilience (default n-2).")
  in
  let f =
    Arg.(value & opt int 0
         & info [ "f" ] ~docv:"F"
             ~doc:
               "Run the canonical $(docv)-kill script: coordinators p1..pF \
                die in their own rounds, alternating mid-data-step and \
                mid-control-step kills.")
  in
  let kills =
    Arg.(value & opt_all string []
         & info [ "kill" ] ~docv:"SPEC"
             ~doc:
               "Scripted kill (repeatable, overrides --f): \
                p1@r1:data=2, p2@r2:ctl=1, p3@r1:before, p4@r3:after.")
  in
  let transport =
    Arg.(value
         & opt (enum [ ("loopback", `Loopback); ("unix", `Unix_s); ("tcp", `Tcp_s) ])
             `Unix_s
         & info [ "transport" ]
             ~doc:
               "Transport: $(b,loopback) (deterministic in-memory wire, no \
                processes), $(b,unix) (one OS process per node over \
                Unix-domain sockets), or $(b,tcp) (same over 127.0.0.1).")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:
               "Workspace for sockets, per-node logs and verdict.json \
                (default: a pid-stamped directory under the system temp \
                dir).")
  in
  let port =
    Arg.(value & opt int 7800
         & info [ "port-base" ] ~doc:"TCP port base (node i listens on base+i).")
  in
  let big_d =
    Arg.(value & opt float 0.25
         & info [ "round-d" ] ~docv:"D" ~doc:"Round window D in seconds.")
  in
  let delta =
    Arg.(value & opt float 0.1
         & info [ "round-delta" ] ~docv:"DELTA"
             ~doc:"Computation slack delta in seconds; rounds cost D+delta.")
  in
  let max_rounds =
    Arg.(value & opt (some int) None
         & info [ "max-rounds" ] ~doc:"Round horizon (default t+2).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Supervisor progress on stderr.")
  in
  let report ~dir tr v =
    Format.printf "%a@." Live.Transcript.pp tr;
    Format.printf "%a@." Live.Judge.pp v;
    (try
       ensure_dir dir;
       let file = Filename.concat dir "verdict.json" in
       let oc = open_out file in
       output_string oc (Obs.Json.to_string (Live.Judge.to_json tr v));
       output_char oc '\n';
       close_out oc;
       Format.printf "wrote %s@." file
     with
    | Sys_error why -> Format.eprintf "cannot write verdict: %s@." why
    | Unix.Unix_error (e, _, _) ->
      Format.eprintf "cannot write verdict: %s@." (Unix.error_message e));
    if v.Live.Judge.ok then 0 else 1
  in
  let go n t f kills transport dir port big_d delta max_rounds verbose =
    let t = Option.value t ~default:(max 1 (n - 2)) in
    let script =
      if kills = [] then Ok (Live.Script.default ~n ~f)
      else
        List.fold_left
          (fun acc spec ->
            match (acc, Live.Script.parse_kill spec) with
            | (Error _ as e), _ -> e
            | Ok ks, Ok k -> Ok (k :: ks)
            | Ok _, (Error _ as e) -> e)
          (Ok []) kills
        |> Result.map List.rev
    in
    match script with
    | Error why ->
      Format.eprintf "live: bad --kill: %s@." why;
      2
    | Ok script -> (
      match Live.Script.validate ~n ~max_kills:t script with
      | Error why ->
        Format.eprintf "live: %s@." why;
        2
      | Ok () -> (
        let dir =
          match dir with
          | Some d -> d
          | None ->
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "sync-agreement-live-%d" (Unix.getpid ()))
        in
        Format.printf "live: n=%d t=%d script=[%s]@." n t
          (Live.Script.to_string script);
        match transport with
        | `Loopback ->
          let tr = Live.Loopback.Rwwc.run ?max_rounds ~n ~t ~script () in
          let schedule =
            Live.Script.to_schedule ~send_plan:(Live.Binding.Rwwc.send_plan ~n)
              script
          in
          report ~dir tr (Live.Judge.judge ~schedule tr)
        | (`Unix_s | `Tcp_s) as tp -> (
          let transport =
            match tp with `Unix_s -> `Unix dir | `Tcp_s -> `Tcp (dir, port)
          in
          let cfg =
            Live.Supervisor.config ?max_rounds ~verbose ~n ~t ~script ~transport
              ~big_d ~delta ()
          in
          match Live.Supervisor.run cfg with
          | Error why ->
            Format.eprintf "live: %s@." why;
            2
          | Ok (tr, v) -> report ~dir tr v)))
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Run the Figure 1 algorithm as one OS process per node over real \
          sockets with deadline-synchronized rounds, kill processes at \
          scripted crash points, and judge the surviving transcript \
          (uniform consensus within f+1 rounds, differential vs the \
          abstract engine).")
    Term.(const go $ n $ t $ f $ kills $ transport $ dir $ port $ big_d $ delta
          $ max_rounds $ verbose)

(* --- serve ---------------------------------------------------------------- *)

let serve_proposals n = fun i node -> (i * n) + node

let serve_report ~json ~min_dps (r : Serve.Report.t) =
  if json then print_endline (Obs.Json.to_string (Serve.Report.to_json r))
  else Format.printf "%a@." Serve.Report.pp r;
  if not r.Serve.Report.ok then begin
    Format.eprintf "serve: %d instance(s) failed their judge verdict@."
      (List.length r.Serve.Report.failures);
    1
  end
  else
    match min_dps with
    | Some floor when r.Serve.Report.decisions_per_sec < floor ->
      Format.eprintf
        "serve: %.0f decisions/sec is below the --min-dps floor of %.0f@."
        r.Serve.Report.decisions_per_sec floor;
      1
    | Some _ | None -> 0

let serve_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of nodes.") in
  let t =
    Arg.(value & opt (some int) None & info [ "t" ] ~doc:"Resilience (default n-2).")
  in
  let instances =
    Arg.(value & opt int 1000
         & info [ "instances" ] ~docv:"I" ~doc:"Consensus instances in the storm.")
  in
  let window =
    Arg.(value & opt int 64
         & info [ "window" ] ~docv:"W"
             ~doc:"Concurrent instances in flight (client window).")
  in
  let transport =
    Arg.(value
         & opt (enum [ ("loopback", `Loopback); ("unix", `Unix_s); ("tcp", `Tcp_s) ])
             `Loopback
         & info [ "transport" ]
             ~doc:
               "Transport: $(b,loopback) (deterministic in-memory mesh, one \
                process), $(b,unix) (one engine process per node over \
                Unix-domain sockets), or $(b,tcp) (same over 127.0.0.1).")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Workspace for sockets and engine logs (default pid-stamped \
                   temp dir).")
  in
  let port =
    Arg.(value & opt int 7900
         & info [ "port-base" ] ~doc:"TCP port base (node i listens on base+i).")
  in
  let big_d =
    Arg.(value & opt float 0.25
         & info [ "round-d" ] ~docv:"D" ~doc:"Per-round receive window in seconds.")
  in
  let no_batch =
    Arg.(value & flag
         & info [ "no-batch" ]
             ~doc:"One write per frame instead of per-peer coalescing — the \
                   baseline the batching stats are judged against.")
  in
  let kill_node =
    Arg.(value & opt (some int) None
         & info [ "kill-node" ] ~docv:"P"
             ~doc:"Kill node $(docv) mid-storm (requires --kill-after-frame).")
  in
  let kill_after =
    Arg.(value & opt (some int) None
         & info [ "kill-after-frame" ] ~docv:"K"
             ~doc:"The victim dies before writing mesh frame $(docv)+1; every \
                   surviving instance is judged under its realized crash \
                   point.")
  in
  let min_dps =
    Arg.(value & opt (some float) None
         & info [ "min-dps" ] ~docv:"RATE"
             ~doc:"Fail (exit 1) if the storm settles fewer than $(docv) \
                   decisions per second.")
  in
  let soak =
    Arg.(value & opt (some float) None
         & info [ "soak" ] ~docv:"SECONDS"
             ~doc:
               "Sustained-load mode: stream instances for $(docv) seconds \
                instead of a fixed --instances storm, and report \
                time-bucketed latency percentiles (unix/tcp transports \
                only).")
  in
  let bucket =
    Arg.(value & opt float 5.0
         & info [ "bucket" ] ~docv:"SECONDS"
             ~doc:"Latency histogram bucket width for --soak.")
  in
  let max_rounds =
    Arg.(value & opt (some int) None
         & info [ "max-rounds" ] ~doc:"Per-instance round horizon (default t+1).")
  in
  let respawn =
    Arg.(value & flag
         & info [ "respawn" ]
             ~doc:
               "Respawn killed engines: each victim is re-forked in rejoin \
                mode (replay its decision WAL, re-dial the mesh, catch up \
                from the peers' logs) under a budgeted exponential backoff; \
                the storm client re-dials it. Implies durable \
                WALs in the workspace.")
  in
  let respawn_budget =
    Arg.(value & opt int 3
         & info [ "respawn-budget" ] ~docv:"K"
             ~doc:"Respawn attempts per node (with --respawn).")
  in
  let wal =
    Arg.(value & flag
         & info [ "wal" ]
             ~doc:
               "Write per-engine fsync'd decision WALs in the workspace even \
                without --respawn.")
  in
  let kill_every =
    Arg.(value & opt (some float) None
         & info [ "kill-every" ] ~docv:"SECONDS"
             ~doc:
               "With --soak and --respawn: SIGKILL the next engine \
                (round-robin) every $(docv) seconds and let the respawn \
                policy bring it back.")
  in
  let chaos_links =
    Arg.(value & opt_all (pair ~sep:':' int int) []
         & info [ "chaos-link" ] ~docv:"SRC:DST"
             ~doc:
               "Interpose a socket-level chaos proxy on the mesh link dialed \
                by node $(i,SRC) toward node $(i,DST) (repeatable). The \
                proxy runs the seeded fault script set by the other \
                $(b,--chaos-*) options.")
  in
  let chaos_seed =
    Arg.(value & opt int 42
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed for the per-link chaos scripts (deterministic).")
  in
  let chaos_cuts =
    Arg.(value & opt int 0
         & info [ "chaos-cuts" ] ~docv:"N"
             ~doc:"Timed link cuts (stalled bytes, healed delivery) per \
                   chaos link.")
  in
  let chaos_resets =
    Arg.(value & opt int 0
         & info [ "chaos-resets" ] ~docv:"N"
             ~doc:"Abrupt link resets per chaos link.")
  in
  let chaos_corrupts =
    Arg.(value & opt int 0
         & info [ "chaos-corrupts" ] ~docv:"N"
             ~doc:"Single-byte corruptions per chaos link (must be caught \
                   by the CRC framing).")
  in
  let chaos_horizon =
    Arg.(value & opt float 10.0
         & info [ "chaos-horizon" ] ~docv:"SECONDS"
             ~doc:"Window after startup over which chaos actions are \
                   scheduled.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let node =
    Arg.(value & opt (some int) None
         & info [ "node" ] ~docv:"I"
             ~doc:
               "Run a single lingering engine for node $(docv) in the \
                foreground instead of a whole storm (pair with $(b,submit)); \
                status events go to stdout.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Fleet progress on stderr.")
  in
  let go n t instances window transport dir port big_d no_batch kill_node
      kill_after min_dps soak bucket max_rounds respawn respawn_budget wal
      kill_every chaos_links chaos_seed chaos_cuts chaos_resets chaos_corrupts
      chaos_horizon json node verbose =
    let t = Option.value t ~default:(max 1 (n - 2)) in
    let kill =
      match (kill_node, kill_after) with
      | Some node, Some after_frames -> Ok (Some { Serve.Report.node; after_frames })
      | None, None -> Ok None
      | Some _, None | None, Some _ ->
        Error "serve: --kill-node and --kill-after-frame go together"
    in
    match kill with
    | Error why ->
      Format.eprintf "%s@." why;
      2
    | Ok kill -> (
      let dir =
        match dir with
        | Some d -> d
        | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "sync-agreement-serve-%d" (Unix.getpid ()))
      in
      match node with
      | Some me ->
        (* One lingering engine: the serving half of a `serve`/`submit`
           pair, or one node of a hand-assembled mesh. *)
        if me < 1 || me > n then begin
          Format.eprintf "serve: --node must be in 1..%d@." n;
          2
        end
        else begin
          ensure_dir dir;
          let transport =
            match transport with
            | `Loopback | `Unix_s -> `Unix dir
            | `Tcp_s -> `Tcp port
          in
          let kill_after =
            match kill with
            | Some k when k.Serve.Report.node = me ->
              Some k.Serve.Report.after_frames
            | _ -> None
          in
          Serve.Engine.Rwwc.main
            {
              Serve.Engine.me;
                 n;
              t;
              transport;
              big_d;
              max_rounds = Option.value max_rounds ~default:(t + 1);
              batch = not no_batch;
              kill_after;
              linger = true;
              wal_dir = (if wal || respawn then Some dir else None);
              rejoin = respawn;
              dial = None;
              status = stdout;
              log = stderr;
            };
          0
        end
      | None -> (
        match transport with
        | `Loopback when soak <> None ->
          Format.eprintf
            "serve: --soak needs a socket transport (unix or tcp)@.";
          2
        | `Loopback ->
          let r =
            Serve.Loopback.Rwwc.run
              {
                Serve.Loopback.Rwwc.n;
                t;
                instances;
                window;
                big_d;
                batch = not no_batch;
                kill;
                max_rounds;
                proposals = serve_proposals n;
              }
          in
          serve_report ~json ~min_dps r
        | (`Unix_s | `Tcp_s) as tp -> (
          ensure_dir dir;
          let transport =
            match tp with `Unix_s -> `Unix dir | `Tcp_s -> `Tcp port
          in
          let bad_link =
            List.find_opt
              (fun (src, dst) ->
                src < 1 || src > n || dst < 1 || dst > n || src = dst)
              chaos_links
          in
          match bad_link with
          | Some (src, dst) ->
            Format.eprintf
              "serve: --chaos-link %d:%d is not a mesh link of 1..%d@." src
              dst n;
            2
          | None -> (
          let chaos =
            List.map
              (fun (src, dst) ->
                {
                  Serve.Chaosproxy.src;
                  dst;
                  actions =
                    Serve.Chaosproxy.generate
                      ~seed:(chaos_seed + (src * 31) + dst)
                      ~horizon:chaos_horizon ~cuts:chaos_cuts
                      ~resets:chaos_resets ~corrupts:chaos_corrupts ();
                })
              chaos_links
          in
          let fleet_cfg =
            {
              Serve.Fleet.n;
              t;
              transport;
              workspace = dir;
              instances;
              window;
              big_d;
              batch = not no_batch;
              backend = Serve.Evloop.Poll;
              kill;
              max_rounds;
              proposals = serve_proposals n;
              client_timeout = None;
              respawn;
              respawn_budget;
              respawn_backoff = 0.2;
              wal;
              chaos;
              verbose;
            }
          in
          match soak with
          | Some duration -> (
            match Serve.Soak.run ?kill_every fleet_cfg ~duration ~bucket with
            | Error why ->
              Format.eprintf "serve: %s@." why;
              2
            | Ok s ->
              if json then
                print_endline (Obs.Json.to_string (Serve.Soak.to_json s))
              else Format.printf "%a" Serve.Soak.pp s;
              if not s.Serve.Soak.ok then begin
                Format.eprintf
                  "serve: soak saw %d disagreement(s), %d instance(s) \
                   undrained@."
                  s.Serve.Soak.disagreements s.Serve.Soak.undrained;
                1
              end
              else (
                match min_dps with
                | Some floor when s.Serve.Soak.decisions_per_sec < floor ->
                  Format.eprintf
                    "serve: %.0f decisions/sec is below the --min-dps floor \
                     of %.0f@."
                    s.Serve.Soak.decisions_per_sec floor;
                  1
                | Some _ | None -> 0))
          | None -> (
            match Serve.Fleet.run fleet_cfg with
            | Error why ->
              Format.eprintf "serve: %s@." why;
              2
            | Ok r -> serve_report ~json ~min_dps r)))))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Consensus as a service: run thousands of multiplexed Figure 1 \
          instances over one socket mesh with a batching event loop, report \
          decisions/sec and latency percentiles, and judge every instance — \
          including under a scripted mid-storm node kill.")
    Term.(const go $ n $ t $ instances $ window $ transport $ dir $ port
          $ big_d $ no_batch $ kill_node $ kill_after $ min_dps $ soak
          $ bucket $ max_rounds $ respawn $ respawn_budget $ wal $ kill_every
          $ chaos_links $ chaos_seed $ chaos_cuts $ chaos_resets
          $ chaos_corrupts $ chaos_horizon $ json $ node $ verbose)

let submit_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of serving nodes.") in
  let instances =
    Arg.(value & opt int 100
         & info [ "instances" ] ~docv:"I" ~doc:"Instances to submit.")
  in
  let window =
    Arg.(value & opt int 32
         & info [ "window" ] ~docv:"W" ~doc:"Concurrent instances in flight.")
  in
  let transport =
    Arg.(value
         & opt (enum [ ("unix", `Unix_s); ("tcp", `Tcp_s) ]) `Unix_s
         & info [ "transport" ] ~doc:"Transport: $(b,unix) or $(b,tcp).")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Socket directory of the running engines (unix transport).")
  in
  let port =
    Arg.(value & opt int 7900
         & info [ "port-base" ] ~doc:"TCP port base of the running engines.")
  in
  let timeout =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~doc:"Overall wall-clock budget in seconds.")
  in
  let reconnect =
    Arg.(value & flag
         & info [ "reconnect" ]
             ~doc:
               "Re-dial a dead engine with jittered backoff and count it \
                live again for the instances submitted after the re-dial \
                (pair with serve --respawn).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the outcome as one JSON object.")
  in
  let go n instances window transport dir port timeout reconnect json =
    let transport =
      match transport with
      | `Unix_s ->
        `Unix
          (Option.value dir
             ~default:
               (Filename.concat
                  (Filename.get_temp_dir_name ())
                  (Printf.sprintf "sync-agreement-serve-%d" (Unix.getpid ()))))
      | `Tcp_s -> `Tcp port
    in
    match
      Serve.Client.run
        {
          Serve.Client.n;
          transport;
          first = 0;
          load = Serve.Client.Count instances;
          window;
          proposals = serve_proposals n;
          timeout;
          reconnect;
        }
    with
    | Error why ->
      Format.eprintf "submit: %s@." why;
      2
    | Ok o ->
      (* The client-side agreement check: every node that reported a
         decision for an instance must have reported the same value. *)
      let disagreements = ref [] in
      Array.iteri
        (fun i per_node ->
          let values =
            Array.to_list per_node
            |> List.filter_map (Option.map fst)
            |> List.sort_uniq compare
          in
          match values with
          | [] | [ _ ] -> ()
          | vs -> disagreements := (i, vs) :: !disagreements)
        o.Serve.Client.decisions;
      let disagreements = List.rev !disagreements in
      let settled = instances - List.length o.Serve.Client.undecided in
      let dps =
        float_of_int settled /. Float.max o.Serve.Client.elapsed 1e-9
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("instances", Obs.Json.Int instances);
                  ("settled", Obs.Json.Int settled);
                  ( "undecided",
                    Obs.Json.List
                      (List.map
                         (fun i -> Obs.Json.Int i)
                         o.Serve.Client.undecided) );
                  ("elapsed", Obs.Json.Float o.Serve.Client.elapsed);
                  ("decisions_per_sec", Obs.Json.Float dps);
                  ("disagreements", Obs.Json.Int (List.length disagreements));
                  ( "dead_nodes",
                    Obs.Json.List
                      (List.map
                         (fun p -> Obs.Json.Int p)
                         o.Serve.Client.dead_nodes) );
                  ("reconnects", Obs.Json.Int o.Serve.Client.reconnects);
                ]))
      else begin
        Format.printf
          "submitted %d instances: %d settled in %.3fs (%.0f decisions/sec)@."
          instances settled o.Serve.Client.elapsed dps;
        List.iter
          (fun (i, vs) ->
            Format.printf "DISAGREEMENT on instance %d: values %s@." i
              (String.concat "," (List.map string_of_int vs)))
          disagreements;
        if o.Serve.Client.dead_nodes <> [] then
          Format.printf "dead nodes: %s@."
            (String.concat ","
               (List.map string_of_int o.Serve.Client.dead_nodes));
        if o.Serve.Client.reconnects > 0 then
          Format.printf "reconnects: %d@." o.Serve.Client.reconnects
      end;
      if disagreements <> [] || settled < instances then 1 else 0
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Drive a storm of instances through already-running serve engines \
          (see $(b,serve --node)) and check cross-node agreement on every \
          decision.")
    Term.(const go $ n $ instances $ window $ transport $ dir $ port $ timeout
          $ reconnect $ json)

(* --- snapshot ------------------------------------------------------------- *)

let snapshot_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of processes.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Scheduler seed.") in
  let go n seed =
    let r = Snapshot.Chandy_lamport.run (Snapshot.Chandy_lamport.config ~n ~seed ()) in
    Format.printf "recorded balances: %s@."
      (String.concat " "
         (Array.to_list
            (Array.map string_of_int r.Snapshot.Chandy_lamport.snapshot.Snapshot.Chandy_lamport.locals)));
    List.iter
      (fun ((i, j), c) -> Format.printf "in transit p%d->p%d: %d token(s)@." i j c)
      r.Snapshot.Chandy_lamport.snapshot.Snapshot.Chandy_lamport.channels;
    Format.printf "recorded total %d / expected %d; conservation %b; consistent cut %b@."
      r.Snapshot.Chandy_lamport.recorded_total
      r.Snapshot.Chandy_lamport.expected_total
      r.Snapshot.Chandy_lamport.conservation_ok
      r.Snapshot.Chandy_lamport.consistent_cut;
    if r.Snapshot.Chandy_lamport.conservation_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Chandy-Lamport snapshot demo (marker messages).")
    Term.(const go $ n $ seed)

let () =
  let info =
    Cmd.info "sync-agreement"
      ~doc:
        "Reproduction of 'The Power and Limit of Adding Synchronization \
         Messages for Synchronous Agreement' (ICPP 2006)."
  in
  (* Accept the common --n/--t/--f spellings for the single-letter options
     (cmdliner only recognizes them as -n/-t/-f). *)
  let argv =
    Array.map
      (function "--n" -> "-n" | "--t" -> "-t" | "--f" -> "-f" | s -> s)
      Sys.argv
  in
  exit
    (Cmd.eval' ~argv
       (Cmd.group info
          [
            run_cmd;
            check_cmd;
            live_cmd;
            serve_cmd;
            submit_cmd;
            shrink_cmd;
            fuzz_cmd;
            experiments_cmd;
            lower_bound_cmd;
            bivalency_cmd;
            chaos_cmd;
            snapshot_cmd;
          ]))

(* The end-to-end benchmark.  BENCHMARK.json names its workloads and
   metrics; README.md in this directory says what each one measures.

     e2e.exe --workload W --seed S --seconds N --trace 0|1 [--out FILE]
     e2e.exe --compare BASE NEW
     e2e.exe --selftest

   A run prints its metrics by name with their units, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  [--trace 0] reports the
   end-to-end metrics of a forked serve fleet; [--trace 1] the per-layer
   metrics, from the counters of a measured run plus a traced rebuild of
   the same layers in this process.  A failed correctness check still
   prints its result, then exits 1. *)

type workload = { wal : bool; kills : bool; loop : Fleet_run.loop }

let workloads =
  [
    ("serve-wal-closed", { wal = true; kills = false; loop = Closed 64 });
    ("serve-mem-open", { wal = false; kills = false; loop = Open 5000.0 });
    ("serve-wal-kill-open", { wal = true; kills = true; loop = Open 1000.0 });
  ]

let n = 5

let warmup = 2.0

(* An open-loop submit this late makes its run unrepresentative. *)
let max_lag = 0.010

(* --- metric tables: the names this program can emit ---------------------- *)

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MiB");
    ("setup_s", "s");
  ]

let self_frac span = span ^ ".self_frac"

let serve_layers =
  List.map (fun s -> (self_frac s, "ratio")) (Array.to_list Composed.span_names)
  @ [
      ("frame.frames_per_op", "count");
      ("frame.bytes_per_op", "B");
      ("batch.frames_per_write", "count");
      ("mux.fast_round_frac", "ratio");
      ("mux.wasted_frame_frac", "ratio");
      ("outq.partial_write_frac", "ratio");
      ("evloop.ready_per_wait", "count");
      ("wal.fsyncs_per_op", "count");
      ("wal.recover_entries", "count");
      ("fleet.redials", "count");
      ("fleet.catchup_frames", "count");
      ("gen.slo_miss_frac", "ratio");
      ("gen.late_frac", "ratio");
      ("trace.traffic_mismatch", "ratio");
    ]

let breakdown =
  [
    ("cpu_us_per_op", "us");
    ("breakdown.attributed_us_per_op", "us");
    ("breakdown.remainder_us_per_op", "us");
    ("trace.overhead_frac", "ratio");
  ]

let per_layer = serve_layers @ breakdown

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let ms x = 1000.0 *. x

(* --- provenance ---------------------------------------------------------- *)

(* Git is consulted only when the working directory is itself a clone, so
   the benchmark never reads above its own checkout. *)
let git args =
  if not (Sys.file_exists ".git") then None
  else
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let r, w = Unix.pipe ~cloexec:true () in
    match
      Unix.create_process "git" (Array.of_list ("git" :: args)) Unix.stdin w null
    with
    | exception Unix.Unix_error _ ->
      List.iter Unix.close [ null; r; w ];
      None
    | pid -> (
      Unix.close w;
      Unix.close null;
      let ic = Unix.in_channel_of_descr r in
      let out = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None)

let provenance () =
  let opt f = function Some v -> f v | None -> Obs.Json.Null in
  Obs.Json.Obj
    [
      ("commit", opt (fun c -> Obs.Json.String c) (git [ "rev-parse"; "HEAD" ]));
      ( "dirty",
        opt (fun s -> Obs.Json.Bool (s <> "")) (git [ "status"; "--porcelain" ]) );
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Obs.Json.String Sys.ocaml_version);
    ]

(* --- serve workloads ------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  detail : (string * Obs.Json.t) list;
}

let floats l = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) l)
let run_dir name = Printf.sprintf ".bench_run/%s-%d" name (Unix.getpid ())

(* Generator plus engine CPU per decision settled in the window. *)
let serve_cpu_us (r : Fleet_run.result) =
  1e6 *. ratio r.cpu (fi r.settled_in_window)

let serve_measured (spec : Fleet_run.spec) (r : Fleet_run.result) =
  let lat = r.latencies in
  let ops = fi r.settled_in_window in
  let lag99 = ms (Samples.percentile r.lags 0.99) in
  let p99_whole = ms (Samples.percentile lat 0.99) in
  (* The steady-state tail: the p99 that three quarters of the window's
     half-second buckets reach or exceed.  Kills, one-off stalls and slow
     spells of the host raise the other quarter; the whole-window p99 and
     the maximum, which they do set, are printed and kept in the details. *)
  let p99 =
    match r.bucket_p99s with
    | [] -> p99_whole
    | l ->
      let q1, _, _ = Samples.quartiles l in
      ms q1
  in
  Printf.printf
    "fleet: n=%d wal=%b kills=%d; %d submitted, %d settled in the %.2f s window\n"
    spec.n spec.wal r.kills r.attempted r.settled_in_window r.window;
  Printf.printf
    "checks: %d unsettled, %d disagreeing, %d invalid; judge passed %d of %d \
     sampled instances\n"
    r.unsettled r.disagreements r.invalid (r.judged - r.judge_failures) r.judged;
  Printf.printf
    "latency: %d samples; p99 %.3f ms as the first quartile of %d half-second \
     buckets' p99s, %.3f ms over the whole window; max %.3f ms\n"
    (Array.length lat) p99 (List.length r.bucket_p99s) p99_whole
    (ms (Samples.percentile lat 1.0));
  Printf.printf "generator and engines used %.3f us CPU per decision\n"
    (serve_cpu_us r);
  (match spec.loop with
  | Open _ ->
    Printf.printf "generator lag p99 %.3f ms%s; %d of %d due requests missed %.0f ms\n"
      lag99
      (if lag99 > ms max_lag then " (above 10 ms: this run is not representative)"
       else "")
      r.slo_misses r.slo_due (ms Fleet_run.slo)
  | Closed _ -> ());
  if r.recoveries <> [] then
    Printf.printf "recovery (SIGKILL -> first Decide of the new life): median %.3f s over %d kills\n"
      (Samples.median r.recoveries) (List.length r.recoveries);
  {
    correct = r.disagreements = 0 && r.invalid = 0 && r.judge_failures = 0;
    attempted = r.attempted;
    failed = Fleet_run.failed r;
    metrics =
      [
        ("ops_per_s", ratio ops r.window);
        ("latency_p50_ms", ms (Samples.percentile lat 0.50));
        ("latency_p99_ms", p99);
        ("peak_rss_mb", fi r.rss_kib /. 1024.0);
        ("setup_s", Samples.median r.setup);
      ];
    detail =
      [
        ("latency_samples", Obs.Json.Int (Array.length lat));
        ("latency_p99_whole_ms", Obs.Json.Float p99_whole);
        ("bucket_p99s_ms", floats (List.map ms r.bucket_p99s));
        ("latency_max_ms", Obs.Json.Float (ms (Samples.percentile lat 1.0)));
        ("cpu_us_per_op", Obs.Json.Float (serve_cpu_us r));
        ("setups_s", floats r.setup);
        ("generator_lag_p99_ms", Obs.Json.Float lag99);
        ("slo_due", Obs.Json.Int r.slo_due);
        ("slo_misses", Obs.Json.Int r.slo_misses);
        ("recoveries_s", floats r.recoveries);
        ("redials_s", floats r.redials);
        ("judged", Obs.Json.Int r.judged);
      ];
  }

let print_spans (recorder : Span.t) ~ops =
  Printf.printf "%-16s %10s %14s %14s %16s %12s\n" "span" "calls/op"
    "total ns/call" "self ns/call" "total p99 <= ns" "self us/op";
  Array.iteri
    (fun i name ->
      let a = recorder.Span.accs.(i) in
      if a.Span.count > 0 then
        Printf.printf "%-16s %10.2f %14.0f %14.0f %16d %12.3f\n" name
          (ratio (fi a.count) ops)
          (ratio (fi a.total) (fi a.count))
          (ratio (fi a.self) (fi a.count))
          (Span.hist_quantile a 0.99)
          (ratio (fi a.self) ops /. 1000.0))
    recorder.Span.names

let span_fracs (recorder : Span.t) =
  let total = fi (Span.attributed_ns recorder) in
  Array.to_list
    (Array.map
       (fun name -> (self_frac name, ratio (fi (Span.self_ns recorder name)) total))
       recorder.Span.names)

let spans_file name seed = Printf.sprintf ".bench_run/spans/%s-seed%d.csv" name seed

let serve_traced ~name (spec : Fleet_run.spec) =
  let dir = run_dir name in
  (* The kill workload's replay cost: Wal.recover on each victim's log, once
     the fleet that wrote it is gone. *)
  let recovered = ref [] in
  let keep workspace =
    if spec.kills then
      for p = 1 to spec.n do
        let path = Serve.Wal.path ~dir:workspace ~node:p in
        let t0 = Unix.gettimeofday () in
        match Serve.Wal.recover ~path ~node:p with
        | Ok (w, r) ->
          Serve.Wal.close w;
          recovered :=
            (Unix.gettimeofday () -. t0, List.length r.Serve.Wal.entries)
            :: !recovered
        | Error _ -> ()
      done
  in
  match Fleet_run.run ~keep spec ~dir with
  | Error e -> Error e
  | Ok r ->
    let base = serve_measured spec r in
    let half = spec.seconds /. 2.0 in
    let plain =
      Composed.run spec ~seconds:half ~workspace:(Filename.concat dir "plain")
    in
    let recorder = Span.create ~seed:spec.seed Composed.span_names in
    let traced =
      Composed.run ~recorder spec ~seconds:half
        ~workspace:(Filename.concat dir "traced")
    in
    Proc.remove_tree dir;
    let file = spans_file name spec.seed in
    Span.write_raw ~file recorder;
    let s = Serve.Stats.create () in
    List.iter (fun (_, x) -> Serve.Stats.add s x) r.node_stats;
    let settled = fi (r.attempted - r.unsettled) in
    let traffic (x : Serve.Stats.t) ops =
      [
        ("frames", ratio (fi x.frames_out) ops);
        ("bytes", ratio (fi x.bytes_out) ops);
        ("writes", ratio (fi x.write_calls) ops);
        ("fsyncs", ratio (fi x.wal_appends) ops);
      ]
    in
    let fleet = traffic s settled in
    let composed = traffic traced.stats (fi traced.ops) in
    let mismatch =
      List.fold_left2
        (fun acc (_, f) (_, c) ->
          if f = 0.0 && c = 0.0 then acc
          else Float.max acc (Float.abs (ratio c f -. 1.0)))
        0.0 fleet composed
    in
    Printf.printf "traffic per decision   %10s %10s\n" "fleet" "traced";
    List.iter2
      (fun (k, f) (_, c) -> Printf.printf "  %-20s %10.3f %10.3f\n" k f c)
      fleet composed;
    Printf.printf
      "the traced run %s the fleet's traffic (largest deviation %.1f%%, limit 10%%)%s\n"
      (if mismatch <= 0.10 then "represents" else "does NOT represent")
      (100.0 *. mismatch)
      (if spec.kills then "; a SIGKILLed life never reports its counters" else "");
    let ops = fi traced.ops in
    let cpu_per_op (c : Composed.result) = ratio c.cpu (fi c.ops) in
    let overhead = ratio (cpu_per_op traced) (cpu_per_op plain) -. 1.0 in
    let attributed = ratio (fi (Span.attributed_ns recorder)) ops /. 1000.0 in
    let measured = serve_cpu_us r in
    print_spans recorder ~ops;
    Printf.printf
      "breakdown per decision: attributed %.3f us (traced), measured %.3f us CPU, \
       remainder %.3f us\n"
      attributed measured (measured -. attributed);
    Printf.printf "tracing overhead %.1f%%; sampled spans in %s\n"
      (100.0 *. overhead) file;
    if !recovered <> [] then
      Printf.printf "Wal.recover of each node's final log: median %.3f ms, %d entries in all\n"
        (ms (Samples.median (List.map fst !recovered)))
        (List.fold_left (fun acc (_, e) -> acc + e) 0 !recovered);
    let late =
      Array.fold_left (fun acc l -> if l > max_lag then acc + 1 else acc) 0 r.lags
    in
    let metrics =
      span_fracs recorder
      @ [
          ("frame.frames_per_op", ratio (fi s.frames_out) settled);
          ("frame.bytes_per_op", ratio (fi s.bytes_out) settled);
          ("batch.frames_per_write", ratio (fi s.frames_out) (fi s.write_calls));
          ( "mux.fast_round_frac",
            ratio (fi s.fast_rounds) (fi (s.fast_rounds + s.expired_rounds)) );
          ( "mux.wasted_frame_frac",
            ratio (fi (s.late_frames + s.dropped_frames)) (fi s.frames_in) );
          ("outq.partial_write_frac", ratio (fi s.partial_writes) (fi s.write_calls));
          ("evloop.ready_per_wait", ratio (fi traced.ready) (fi traced.waits));
          ("wal.fsyncs_per_op", ratio (fi s.wal_appends) settled);
          ( "wal.recover_entries",
            fi (List.fold_left (fun acc (_, e) -> acc + e) 0 !recovered) );
          ("fleet.redials", fi (List.length r.redials));
          ("fleet.catchup_frames", fi s.catchup_in);
          ("gen.slo_miss_frac", ratio (fi r.slo_misses) (fi r.slo_due));
          ("gen.late_frac", ratio (fi late) (fi (Array.length r.lags)));
          ("trace.traffic_mismatch", mismatch);
        ]
      @ [
          ("cpu_us_per_op", measured);
          ("breakdown.attributed_us_per_op", attributed);
          ("breakdown.remainder_us_per_op", measured -. attributed);
          ("trace.overhead_frac", overhead);
        ]
    in
    let composed_failed = plain.failed + traced.failed in
    Ok
      {
        correct = base.correct && composed_failed = 0;
        attempted = base.attempted + plain.ops + traced.ops;
        failed = base.failed + composed_failed;
        metrics;
        detail =
          base.detail
          @ [
              ("wal_recover_s", floats (List.map fst !recovered));
              ("traced_ops", Obs.Json.Int traced.ops);
              ("spans_file", Obs.Json.String file);
            ];
      }

(* --- output --------------------------------------------------------------- *)

(* The emitted names must be exactly the ones BENCHMARK.json lists for this
   mode, with the same units: a metric the file does not name is never
   printed, and a listed one is never silently missing. *)
let conform (listed : Bench_file.metric list) table metrics =
  let sorted l = List.sort compare l in
  let emitted = sorted (List.map fst metrics) in
  let wanted = sorted (List.map (fun (m : Bench_file.metric) -> m.name) listed) in
  if emitted <> wanted then
    Error
      (Printf.sprintf
         "metric names differ from BENCHMARK.json: emitted [%s], listed [%s]"
         (String.concat " " emitted) (String.concat " " wanted))
  else
    match
      List.find_opt
        (fun (m : Bench_file.metric) -> List.assoc_opt m.name table <> Some m.unit_)
        listed
    with
    | Some m -> Error (Printf.sprintf "%s: unit %s in BENCHMARK.json differs" m.name m.unit_)
    | None -> Ok ()

let result_json o table =
  [
    ("correct", Obs.Json.Bool o.correct);
    ("attempted", Obs.Json.Int o.attempted);
    ("failed", Obs.Json.Int o.failed);
    ( "metrics",
      Obs.Json.Obj
        (List.map
           (fun (name, v) ->
             ( name,
               Obs.Json.Obj
                 [
                   ("value", Obs.Json.Float v);
                   ("unit", Obs.Json.String (List.assoc name table));
                 ] ))
           o.metrics) );
  ]

let append_line file line =
  Proc.mkdir_p (Filename.dirname file);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file
    (fun oc -> output_string oc (line ^ "\n"))

let run_workload (bench : Bench_file.t) ~name ~seed ~seconds ~trace ~out =
  let outcome =
    match List.assoc_opt name workloads with
    | None -> Error ("the benchmark has no workload " ^ name)
    | Some { wal; kills; loop } ->
      let spec = { Fleet_run.n; wal; kills; loop; warmup; seconds; seed } in
      if trace then serve_traced ~name spec
      else Result.map (serve_measured spec) (Fleet_run.run spec ~dir:(run_dir name))
  in
  let listed, table =
    if trace then (bench.per_layer, per_layer) else (bench.end_to_end, end_to_end)
  in
  let ( let* ) = Result.bind in
  let* o = outcome in
  let* () = conform listed table o.metrics in
  List.iter
    (fun (k, v) -> Printf.printf "metric %-34s %18.6f %s\n" k v (List.assoc k table))
    o.metrics;
  let result = result_json o table in
  Option.iter
    (fun file ->
      let doc =
        [
          ("workload", Obs.Json.String name);
          ("seed", Obs.Json.Int seed);
          ("seconds", Obs.Json.Float seconds);
          ("trace", Obs.Json.Bool trace);
          ("provenance", provenance ());
          ("detail", Obs.Json.Obj o.detail);
        ]
        @ result
      in
      append_line file (Obs.Json.to_string (Obs.Json.Obj doc)))
    out;
  print_endline (Obs.Json.to_string (Obs.Json.Obj result));
  Ok o.correct

(* --- self-test ------------------------------------------------------------ *)

let selftest loaded =
  let (bench : Bench_file.t), _, _ = loaded in
  let ( let* ) = Result.bind in
  let same what a b =
    if List.sort compare a = List.sort compare b then Ok ()
    else
      Error
        (Printf.sprintf "%s: BENCHMARK.json has [%s], the benchmark [%s]" what
           (String.concat " " a) (String.concat " " b))
  in
  let show l = List.map (fun (n, u) -> n ^ ":" ^ u) l in
  let listed l =
    show (List.map (fun (m : Bench_file.metric) -> (m.name, m.unit_)) l)
  in
  let* () = Bench_file.validate loaded in
  let* () = same "workloads" bench.workloads (List.map fst workloads) in
  let* () = same "end_to_end" (listed bench.end_to_end) (show end_to_end) in
  let* () = same "per_layer" (listed bench.per_layer) (show per_layer) in
  (* --compare of a document set against itself passes; a copy whose every
     metric got 50% worse fails. *)
  let doc scale k =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String (List.hd bench.workloads));
        ("attempted", Obs.Json.Int 100);
        ("failed", Obs.Json.Int 0);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (m : Bench_file.metric) ->
                 let v = 100.0 +. fi (k mod 3) in
                 let v = match m.better with Higher -> v /. scale | Lower -> v *. scale in
                 (m.name, Obs.Json.Obj [ ("value", Obs.Json.Float v) ]))
               bench.end_to_end) );
      ]
  in
  let side scale = Verdict.of_docs (List.init 10 (doc scale)) in
  let quietly f =
    flush stdout;
    let saved = Unix.dup Unix.stdout in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    let r = f () in
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    List.iter Unix.close [ saved; null ];
    r
  in
  let against_itself =
    quietly (fun () -> Verdict.run bench ~base:(side 1.0) ~fresh:(side 1.0))
  in
  let against_worse =
    quietly (fun () -> Verdict.run bench ~base:(side 1.0) ~fresh:(side 1.5))
  in
  if against_itself <> 0 then Error "--compare of runs against themselves failed"
  else if against_worse = 0 then Error "--compare missed a 50% regression"
  else Ok ()

(* --- command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let out = ref None and benchmark = ref "BENCHMARK.json" in
  let compare = ref [] and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  a workload BENCHMARK.json lists");
      ("--seed", Arg.Set_int seed, "N  seed of the workload's inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds (default run_seconds)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  append the run's document");
      ("--benchmark", Arg.Set_string benchmark, "FILE  where BENCHMARK.json is");
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun f -> compare := [ f ]);
            Arg.String (fun f -> compare := !compare @ [ f ]);
          ],
        "BASE NEW  compare two files of run documents" );
      ("--selftest", Arg.Set self, " check BENCHMARK.json and --compare, run nothing");
    ]
  in
  let usage = "e2e.exe --workload W --seed S --seconds N --trace 0|1 [--out FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("e2e: " ^ msg);
    exit 2
  in
  match Bench_file.load !benchmark with
  | Error e -> fail e
  | Ok ((bench, _, _) as loaded) -> (
    if !self then
      match selftest loaded with
      | Ok () -> print_endline "selftest: ok"
      | Error e -> fail e
    else
      match !compare with
      | [ base; fresh ] -> (
        match (Verdict.load base, Verdict.load fresh) with
        | Ok b, Ok n -> exit (Verdict.run bench ~base:b ~fresh:n)
        | Error e, _ | _, Error e -> fail e)
      | _ :: _ -> fail "--compare takes two files"
      | [] -> (
        if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
        if not (List.mem !workload bench.workloads) then
          fail (Printf.sprintf "workload %S is not in %s" !workload !benchmark);
        let seconds =
          if !seconds > 0.0 then !seconds else fi bench.run_seconds
        in
        match
          run_workload bench ~name:!workload ~seed:!seed ~seconds
            ~trace:(!trace = 1) ~out:!out
        with
        | Error e -> fail e
        | Ok true -> ()
        | Ok false ->
          prerr_endline "e2e: a correctness check failed";
          exit 1))

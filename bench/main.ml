(* Bench harness.

   Phase 1 regenerates every evaluation table of the paper (the experiment
   registry — EXP-F1 .. EXP-CL); phase 2 runs one Bechamel micro-benchmark
   per table, timing the computational kernel behind it, plus a few engine
   throughput benches.  Absolute times are machine-local; the reproduced
   shapes live in the phase-1 tables. *)

open Bechamel
open Toolkit
open Model
open Sync_sim

(* --- Phase 2 kernels: one per experiment table --------------------------- *)

let silent ~n ~f =
  Adversary.Strategies.coordinator_killer ~n ~f ~style:Adversary.Strategies.Silent

let greedy ~n ~f =
  Adversary.Strategies.coordinator_killer ~n ~f ~style:Adversary.Strategies.Greedy

let rwwc_run ~n ~t ~schedule () =
  ignore
    (Harness.Runners.Rwwc_runner.run
       (Engine.config ~schedule ~n ~t ~proposals:(Harness.Workloads.distinct n) ()))

let bench_f1 () =
  ignore
    (Harness.Runners.Rwwc_runner.run
       (Engine.config ~record_trace:true ~schedule:(silent ~n:8 ~f:3) ~n:8 ~t:6
          ~proposals:(Harness.Workloads.distinct 8) ()))

let bench_t1 () = rwwc_run ~n:32 ~t:30 ~schedule:(silent ~n:32 ~f:6) ()

let bench_t2_best () = rwwc_run ~n:32 ~t:30 ~schedule:Schedule.empty ()

let bench_t2_worst () = rwwc_run ~n:32 ~t:30 ~schedule:(greedy ~n:32 ~f:8) ()

let bench_s22 () =
  ignore
    (Harness.Runners.Es_runner.run
       (Engine.config ~schedule:(silent ~n:16 ~f:4) ~n:16 ~t:14
          ~proposals:(Harness.Workloads.distinct 16) ()))

module Ex = Lower_bound.Explorer.Make (Core.Rwwc)

let bench_lb () =
  ignore
    (Ex.truncation_violation ~n:4 ~decide_by:2
       ~proposals:(Harness.Workloads.distinct 4))

module Biv = Lower_bound.Bivalency.Make (Core.Rwwc)

let bench_biv () =
  ignore (Biv.analyze ~n:4 ~t:2 ~proposals:(Harness.Workloads.binary ~n:4 ~zeros:1))

let bench_sim () =
  let n = 8 and t = 6 in
  let schedule = Harness.Runners.Compiled.translate_schedule ~n (silent ~n ~f:2) in
  ignore
    (Harness.Runners.Compiled_runner.run
       (Engine.config ~max_rounds:(n * (t + 2)) ~schedule ~n ~t
          ~proposals:(Harness.Workloads.distinct n) ()))

module Paced = Fastfd.Paced.Make (struct
  let d = 1.0
  let big_d = 100.0
end)

module Paced_runner = Timed_sim.Timed_engine.Make (Paced)

let bench_ffd () =
  let n = 8 in
  let crashes =
    [
      { Timed_sim.Timed_engine.victim = Pid.of_int 1; at = 0.0; batch_prefix = 0 };
      {
        Timed_sim.Timed_engine.victim = Pid.of_int 2;
        at = Paced.slot_time 2;
        batch_prefix = 0;
      };
    ]
  in
  let crash_times =
    List.map (fun (c : Timed_sim.Timed_engine.crash_spec) -> (c.victim, c.at)) crashes
  in
  ignore
    (Paced_runner.run
       (Timed_sim.Timed_engine.config
          ~latency:(Timed_sim.Timed_engine.Fixed 100.0)
          ~crashes
          ~fd_plan:(Fastfd.Device.plan ~n ~d:1.0 ~crashes:crash_times ())
          ~n ~t:(n - 1) ~proposals:(Harness.Workloads.distinct n) ()))

module Mr99_runner = Timed_sim.Timed_engine.Make (Async_cons.Mr99)

let bench_mr99 () =
  let n = 5 in
  let rng = Prng.Rng.of_int 13 in
  ignore
    (Mr99_runner.run
       (Timed_sim.Timed_engine.config
          ~latency:(Timed_sim.Timed_engine.Exponential { mean = 1.0; cap = 8.0 })
          ~fd_plan:
            (Async_cons.Fd_s.plan ~rng ~n ~crashes:[] ~trusted:(Pid.of_int 1)
               ~gst:50.0 ~detect_lag:2.0 ~noise_events:2)
          ~deadline:100000.0 ~n ~t:2
          ~proposals:(Harness.Workloads.distinct n) ()))

let bench_cl () =
  ignore (Snapshot.Chandy_lamport.run (Snapshot.Chandy_lamport.config ~n:5 ()))

let abl_witness =
  Schedule.of_list
    [
      ( Pid.of_int 1,
        Model.Crash.make ~round:1
          (Model.Crash.During_data (Pid.set_of_ints [ 4 ])) );
    ]

let bench_abl () =
  (* The ablation kernel: one broken-variant run over a witness schedule,
     config and scratch included (a one-shot registry runner). *)
  ignore ((Minimize.Algo.get "data-decide").runner ~n:4 ~t:2 abl_witness)

module Nu_runner = Sync_sim.Engine.Make (Baselines.Nonuniform_early)

let bench_uni () =
  ignore
    (Nu_runner.run
       (Engine.config ~schedule:(silent ~n:8 ~f:2) ~n:8 ~t:3
          ~proposals:(Harness.Workloads.distinct 8) ()))

module Lan_rwwc =
  Lan.Realization.Make
    (Core.Rwwc)
    (struct
      let big_d = 100.0
      let delta = 2.0
    end)

module Lan_runner = Timed_sim.Timed_engine.Make (Lan_rwwc)

let bench_lan () =
  let n = 8 in
  let schedule = silent ~n ~f:2 in
  ignore
    (Lan_runner.run
       (Timed_sim.Timed_engine.config
          ~latency:(Timed_sim.Timed_engine.Uniform { lo = 1.0; hi = 100.0 })
          ~crashes:
            (Lan.Realization.translate_rwwc_schedule ~n ~big_d:100.0 ~delta:2.0
               schedule)
          ~n ~t:(n - 2) ~proposals:(Harness.Workloads.distinct n) ()))

(* Chaos: the retransmitting transport under a seeded network storm — the
   kernel behind EXP-CHAOS.  Measures the full masked run including fault
   draws, retries and ack bookkeeping. *)

module Masked_rwwc =
  Lan.Masked.Make
    (Core.Rwwc)
    (struct
      let big_d = 10.0
      let delta = 1.0
      let retry_budget = 2
    end)

module Masked_runner = Timed_sim.Timed_engine.Make (Masked_rwwc)

let bench_chaos () =
  let n = 6 in
  ignore
    (Masked_runner.run
       (Timed_sim.Timed_engine.config
          ~latency:(Timed_sim.Timed_engine.Uniform { lo = 0.5; hi = 5.0 })
          ~faults:
            (Adversary.Net_faults.network_storm ~drop:0.1 ~duplicate:0.05
               ~jitter:0.2 ~jitter_spread:2.5 ~seed:11L ())
          ~seed:11L ~n ~t:(n - 2) ~proposals:(Harness.Workloads.distinct n) ()))

(* Engine throughput references. *)

let bench_eff () =
  ignore
    (Harness.Runners.Flood_runner.run
       (Engine.config ~schedule:(silent ~n:32 ~f:2) ~n:32 ~t:30
          ~proposals:(Harness.Workloads.distinct 32) ()))

let bench_engine_large () = rwwc_run ~n:64 ~t:62 ~schedule:(silent ~n:64 ~f:16) ()

(* Observer-layer overhead: the identical engine workload under the null
   instrument and under real sinks.  "obs/rwwc-null-n32" must sit within
   noise of "table-T1/rwwc-silent-n32-f6" (the same run through the default
   config) — the null path allocates no events. *)

let obs_cfg instrument =
  Engine.config ~instrument ~schedule:(silent ~n:32 ~f:6) ~n:32 ~t:30
    ~proposals:(Harness.Workloads.distinct 32) ()

let bench_obs_null () =
  ignore (Harness.Runners.Rwwc_runner.run (obs_cfg Obs.Instrument.null))

let bench_obs_metrics () =
  let m = Obs.Metrics.create () in
  ignore (Harness.Runners.Rwwc_runner.run (obs_cfg (Obs.Metrics.instrument m)))

let bench_obs_online () =
  let guard =
    Obs.Online_invariants.create ~n:32 ~t:30
      ~proposals:(Harness.Workloads.distinct 32) ()
  in
  ignore
    (Harness.Runners.Rwwc_runner.run
       (obs_cfg (Obs.Online_invariants.instrument guard)))

let bench_obs_trace () =
  let ts = Obs.Trace_sink.create () in
  ignore (Harness.Runners.Rwwc_runner.run (obs_cfg (Obs.Trace_sink.instrument ts)))

(* Model-check sweep kernels — the hot loop behind `sync-agreement check`
   (EXP-MC): a reused-runner verdict fold over the full n=4 extended-model
   schedule space, sequential vs sharded across up to 4 domains — no more
   than the machine recommends, so the sharded kernel never measures
   domains contending for too few cores. *)

let mc_fold ~shards ~shard =
  let rwwc = Minimize.Algo.get "rwwc" in
  let s =
    Minimize.Algo.sweep rwwc ~n:4 ~t:2
      (Adversary.Enumerate.shard ~shards ~shard
         (Minimize.Algo.space rwwc ~symmetry:false ~n:4 ~t:2 ~max_f:2
            ~max_round:3))
  in
  s.Minimize.Algo.violations = []

let bench_mc_seq () = assert (mc_fold ~shards:1 ~shard:0)

let bench_mc_domains () =
  let domains = min 4 (Domain.recommended_domain_count ()) in
  assert (List.for_all Fun.id (Parallel.Pool.shards ~domains mc_fold))

(* The allocation-lean fast path: the runner (and its scratch) is created
   once, outside the timed region, so this measures the steady-state
   per-run cost next to "table-T1/rwwc-silent-n32-f6" (fresh config+scratch
   every run). *)

let t1_runner =
  Harness.Runners.Rwwc_runner.runner
    (Engine.config ~n:32 ~t:30 ~proposals:(Harness.Workloads.distinct 32) ())

let t1_schedule = silent ~n:32 ~f:6

let bench_reused_runner () = ignore (t1_runner t1_schedule)

let bench_floodset () =
  ignore
    (Harness.Runners.Flood_runner.run
       (Engine.config ~n:16 ~t:8 ~proposals:(Harness.Workloads.distinct 16) ()))

(* Minimize kernels — the machinery behind `sync-agreement shrink` and
   EXP-DIFF.  The failing schedule and the algorithm record are built once,
   outside the staged thunk, so the measurement is the greedy descent
   (schedule re-runs per candidate) and one oracle pass respectively. *)

let shrink_algo = Minimize.Algo.get "data-decide"

let shrink_input =
  match
    Minimize.Algo.first_violation shrink_algo ~n:4 ~t:2 ~max_f:2 ~max_round:3
  with
  | Some (schedule, check), _ -> (schedule, check.Spec.Properties.name)
  | None, _ -> failwith "bench: data-decide has no violation at n=4"

let bench_shrink () =
  let schedule, property = shrink_input in
  let still_fails s =
    let res = shrink_algo.Minimize.Algo.runner ~n:4 ~t:2 s in
    List.exists
      (fun c -> c.Spec.Properties.name = property && not c.Spec.Properties.ok)
      (Minimize.Algo.checks shrink_algo ~t:2 res)
  in
  ignore
    (Minimize.Shrink.run ~reductions:Adversary.Enumerate.reductions ~still_fails
       schedule)

let oracle_schedule = silent ~n:4 ~f:1

let bench_oracle () =
  assert (Minimize.Oracle.agrees ~n:4 ~t:2 oracle_schedule)

(* The live wire protocol without the sockets: a full n=5 f=2 loopback
   round trip — encode, CRC, incremental decode for every frame — is the
   per-run overhead the live runtime adds over the abstract engine. *)
let live_script = Live.Script.default ~n:5 ~f:2

let bench_live_loopback () =
  ignore (Live.Loopback.Rwwc.run ~n:5 ~t:2 ~script:live_script ())

let bench_heap () =
  let h = Timed_sim.Heap.create () in
  for i = 0 to 999 do
    Timed_sim.Heap.add h ~time:(float_of_int ((i * 7919) mod 997)) ~rank:0 i
  done;
  let rec drain () = match Timed_sim.Heap.pop h with Some _ -> drain () | None -> () in
  drain ()

(* Flat-engine scale kernels: the reused runner (scratch allocated once,
   outside the timed region) on coordinator-killer schedules at sizes the
   list-era engine could not complete in reasonable time.  The n=1024 f=256
   kernel executes a 257-round run over a megabyte-scale arena per call. *)

let flat_kernel ~n ~f =
  let runner =
    Harness.Runners.Rwwc_runner.runner
      (Engine.config ~n ~t:(n - 2) ~proposals:(Harness.Workloads.distinct n) ())
  in
  let schedule = silent ~n ~f in
  fun () -> ignore (runner schedule)

let bench_flat_n256 = flat_kernel ~n:256 ~f:64
let bench_flat_n1024 = flat_kernel ~n:1024 ~f:256

(* Dist kernels: the serialization spine of the coordinator/worker path.
   The protocol kernel is a full [Result] message round trip — JSON encode,
   frame, CRC, incremental decode, JSON parse — the per-shard wire cost a
   distributed sweep pays over an in-process one; the checkpoint kernel is
   one save/load cycle of a 24-shard checkpoint through the fsync'd
   atomic-rename path, the durability cost of acknowledging one shard. *)

let dist_result_msg =
  let violation =
    {
      Dist.Protocol.schedule = silent ~n:4 ~f:1;
      property = "uniform-agreement";
      detail = "bench fixture";
    }
  in
  Dist.Protocol.Result
    {
      Dist.Protocol.shard = 7;
      classes = 263;
      violations = [ violation; violation; violation ];
      violations_total = 3;
      worker = "bench";
    }

let bench_dist_protocol () =
  let json = Dist.Protocol.msg_to_json dist_result_msg in
  let body = Obs.Json.to_string json in
  let bytes =
    Live.Frame.encode
      (Live.Frame.Data { instance = 0; round = 0; payload = body })
  in
  let decoder = Live.Frame.decoder () in
  Live.Frame.feed_string decoder bytes;
  match Live.Frame.pop decoder with
  | `Frame (Live.Frame.Data { payload; _ }) -> (
    match Obs.Json.of_string payload with
    | Error why -> failwith why
    | Ok j -> (
      match Dist.Protocol.msg_of_json j with
      | Ok _ -> ()
      | Error why -> failwith why))
  | _ -> failwith "bench_dist_protocol: frame did not round-trip"

let dist_checkpoint_file =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sync-agreement-bench-ckpt-%d.json" (Unix.getpid ()))

let dist_checkpoint =
  let shard_result shard =
    {
      Dist.Protocol.shard;
      classes = 252;
      violations = [];
      violations_total = 0;
      worker = "bench";
    }
  in
  {
    Dist.Checkpoint.job =
      {
        Dist.Protocol.algo = "rwwc";
        n = 5;
        max_f = 3;
        max_round = 3;
        shards = 24;
        symmetry = true;
        heartbeat_every = 0.25;
      };
    results = List.init 24 shard_result;
  }

let bench_dist_checkpoint () =
  Dist.Checkpoint.save ~file:dist_checkpoint_file dist_checkpoint;
  match Dist.Checkpoint.load dist_checkpoint_file with
  | Ok _ -> ()
  | Error why -> failwith why

(* Serve kernels — the consensus-as-a-service path (EXP-SERVE), timed in
   ns per storm through the deterministic loopback: five real engines
   stepped over socketpairs on a virtual clock, so the time includes the
   engines' own syscalls.  The storm kernel runs a full 1000-instance n=5
   storm with per-destination batching on.  The kill-storm kernel is a
   500-instance storm with a mid-storm coordinator kill, so its cost
   includes instances that had to ride out an expired round.  Both assert
   the per-instance judge verdicts so a perf regression can never hide a
   correctness one. *)

let storm_config ~instances ~window ~kill =
  {
    Serve.Loopback.Rwwc.n = 5;
    t = 2;
    instances;
    window;
    big_d = 0.25;
    batch = true;
    kill;
    max_rounds = None;
    proposals = (fun i node -> (i * 5) + node);
  }

let judged (r : Serve.Report.t) =
  if not r.Serve.Report.ok then failwith "serve storm: judge failures"

let serve_storm ~instances ~window ~kill () =
  judged (Serve.Loopback.Rwwc.run (storm_config ~instances ~window ~kill))

let storm_kill = Some { Serve.Report.node = 1; after_frames = 157 }

let bench_serve_loopback_storm () =
  serve_storm ~instances:1000 ~window:64 ~kill:None ()

let bench_serve_loopback_kill_storm () =
  serve_storm ~instances:500 ~window:32 ~kill:storm_kill ()

(* Count kernels: the same two storms, run once, reporting exact
   deterministic costs instead of a time — the machine drifts more than
   a change moves these.  Minor words are the engines' turns only
   ([Loopback.run_counting_words]); write calls, flushes and frames are
   the engines' own counters; everything is per decision taken by an
   engine, next to the totals it was divided from. *)
let serve_counts ~instances ~window ~kill () =
  let r, words =
    Serve.Loopback.Rwwc.run_counting_words (storm_config ~instances ~window ~kill)
  in
  judged r;
  let s = r.Serve.Report.total in
  let decisions = s.Serve.Stats.decides in
  let per x = Obs.Json.Float (float_of_int x /. float_of_int decisions) in
  let words = int_of_float words in
  [
    ("decisions", Obs.Json.Int decisions);
    ("engine_minor_words", Obs.Json.Int words);
    ("minor_words_per_decision", per words);
    ("write_calls", Obs.Json.Int s.Serve.Stats.write_calls);
    ("write_calls_per_decision", per s.Serve.Stats.write_calls);
    ("flushes", Obs.Json.Int s.Serve.Stats.flushes);
    ("flushes_per_decision", per s.Serve.Stats.flushes);
    ("frames", Obs.Json.Int s.Serve.Stats.frames_out);
    ("frames_per_decision", per s.Serve.Stats.frames_out);
  ]

(* The wire hot path in isolation: a pre-encoded 2000-frame stream (Data
   with a 16-byte payload + Ctl, interleaved across 1000 instance ids of
   every varint width) drained through the allocating [pop] and the
   zero-copy [pop_view] — the difference is what the view read path buys
   each event-loop wakeup. *)

let decode_wire =
  String.concat ""
    (List.concat_map
       (fun i ->
         let instance = i * 1049 mod (Live.Frame.max_instance + 1) in
         [
           Live.Frame.encode
             (Live.Frame.Data
                { instance; round = 1; payload = String.make 16 'x' });
           Live.Frame.encode (Live.Frame.Ctl { instance; round = 2 });
         ])
       (List.init 1000 Fun.id))

let bench_frame_decode () =
  let d = Live.Frame.decoder () in
  Live.Frame.feed_string d decode_wire;
  let rec drain n =
    match Live.Frame.pop d with
    | `Frame _ -> drain (n + 1)
    | `Need_more -> n
    | `Corrupt why -> failwith why
  in
  if drain 0 <> 2000 then failwith "bench_frame_decode: lost frames"

let bench_frame_decode_views () =
  let d = Live.Frame.decoder () in
  Live.Frame.feed_string d decode_wire;
  let rec drain n =
    match Live.Frame.pop_view d with
    | `View _ -> drain (n + 1)
    | `Need_more -> n
    | `Corrupt why -> failwith why
  in
  if drain 0 <> 2000 then failwith "bench_frame_decode_views: lost frames"

(* The write path: 64 coordinator rounds of an n=5 instance as
   [Mux.send_round] emits them — one Data value to p2..p5, then one Ctl
   value to p5..p2 — encoded into a batcher, then one flush.  Nobody
   listens, so the flush keeps its buffers. *)
let encode_batch =
  Serve.Batch.create ~n:5 ~batch:true ~stats:(Serve.Stats.create ())
    ~send:(fun ~dest:_ _ ~len:_ -> `Done)

let bench_frame_encode_round () =
  for instance = 0 to 63 do
    let data =
      Live.Frame.Data { instance; round = 1; payload = "\x00\x00\x00\x2a" }
    in
    let ctl = Live.Frame.Ctl { instance; round = 1 } in
    for dest = 2 to 5 do
      Serve.Batch.add_frame encode_batch ~dest data
    done;
    for dest = 5 downto 2 do
      Serve.Batch.add_frame encode_batch ~dest ctl
    done
  done;
  Serve.Batch.flush encode_batch

let counts =
  [
    ( "counts/serve-storm-n5-i1000",
      serve_counts ~instances:1000 ~window:64 ~kill:None );
    ( "counts/serve-kill-storm-n5-i500",
      serve_counts ~instances:500 ~window:32 ~kill:storm_kill );
  ]

let kernels =
  [
    ("table-F1/rwwc-traced-n8-f3", bench_f1);
    ("table-T1/rwwc-silent-n32-f6", bench_t1);
    ("table-T2a/rwwc-best-n32", bench_t2_best);
    ("table-T2b/rwwc-greedy-n32-f8", bench_t2_worst);
    ("table-S22/early-stopping-n16-f4", bench_s22);
    ("table-LB/truncation-witness-n4", bench_lb);
    ("table-BIV/valence-n4-t2", bench_biv);
    ("table-SIM/compiled-rwwc-n8-f2", bench_sim);
    ("table-FFD/paced-n8-f2", bench_ffd);
    ("table-MR99/async-run-n5", bench_mr99);
    ("table-CL/snapshot-n5", bench_cl);
    ("table-ABL/broken-variant-n4", bench_abl);
    ("table-UNI/nonuniform-n8-f2", bench_uni);
    ("table-LAN/rwwc-on-lan-n8-f2", bench_lan);
    ("table-CHAOS/masked-storm-n6", bench_chaos);
    ("table-EFF/floodset-n32", bench_eff);
    ("engine/rwwc-n64-f16", bench_engine_large);
    ("engine/rwwc-reused-runner-n32", bench_reused_runner);
    ("engine/rwwc-flat-n256", bench_flat_n256);
    ("engine/rwwc-flat-n1024-f256", bench_flat_n1024);
    ("mc/sweep-n4-seq", bench_mc_seq);
    ("mc/sweep-n4-domains", bench_mc_domains);
    ("obs/rwwc-null-n32", bench_obs_null);
    ("obs/rwwc-metrics-n32", bench_obs_metrics);
    ("obs/rwwc-online-n32", bench_obs_online);
    ("obs/rwwc-trace-sink-n32", bench_obs_trace);
    ("engine/floodset-n16-t8", bench_floodset);
    ("minimize/shrink-data-decide-n4", bench_shrink);
    ("minimize/oracle-rwwc-n4", bench_oracle);
    ("engine/heap-1k-push-pop", bench_heap);
    ("live/rwwc-n5-loopback", bench_live_loopback);
    ("dist/result-msg-roundtrip", bench_dist_protocol);
    ("dist/checkpoint-save-load", bench_dist_checkpoint);
    ("frame/decode-throughput", bench_frame_decode);
    ("frame/decode-throughput-views", bench_frame_decode_views);
    ("frame/encode-round-n5", bench_frame_encode_round);
    ("serve/loopback-storm-n5-i1000", bench_serve_loopback_storm);
    ("serve/loopback-kill-storm-n5-i500", bench_serve_loopback_kill_storm);
  ]

(* Statistical quality floor: every reported estimate must come from at
   least [min_samples] samples and fit with r^2 >= [min_r2], or the kernel
   is re-measured with a doubled time quota (up to [max_attempts]).  The
   warmup calls before the first measurement keep one-time costs — arena
   growth, lazy initialization, cold caches — out of the sampled region;
   they, plus the floor, are what lifted the shrink/oracle kernels from
   r^2 ~ 0.7 to >= 0.8. *)
let min_r2 = 0.8

let min_samples = 10
let max_attempts = 3
let warmup_iters = 3

let measure_kernel (name, fn) =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  for _ = 1 to warmup_iters do
    fn ()
  done;
  let rec attempt ~quota ~tries =
    let cfg =
      Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~kde:None
        ~stabilize:true ()
    in
    let results =
      Benchmark.all cfg instances (Test.make ~name (Staged.stage fn))
    in
    let samples =
      Hashtbl.fold
        (fun _ (b : Benchmark.t) acc -> min acc b.Benchmark.stats.samples)
        results max_int
    in
    let analyzed = Analyze.all ols Instance.monotonic_clock results in
    let row = ref (name, None, None) in
    Hashtbl.iter
      (fun name ols_result ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Some e
          | Some [] | None -> None
        in
        row := (name, ns, Analyze.OLS.r_square ols_result))
      analyzed;
    let _, _, r2 = !row in
    let good =
      samples >= min_samples
      && match r2 with Some r -> r >= min_r2 | None -> false
    in
    if good || tries >= max_attempts then !row
    else attempt ~quota:(2.0 *. quota) ~tries:(tries + 1)
  in
  attempt ~quota:1.0 ~tries:1

(* [--kernel] names; none means every kernel. *)
let chosen only name = only = [] || List.mem name only

let run_benchmarks ~only () =
  let table =
    Diag.Table.create ~title:"Micro-benchmarks (monotonic clock)"
      ~header:[ "benchmark"; "ns/run"; "r^2" ] ()
  in
  let selected = List.filter (fun (name, _) -> chosen only name) kernels in
  let rows =
    List.map
      (fun kernel ->
        let ((name, ns, r2) as row) = measure_kernel kernel in
        Diag.Table.add_row table
          [
            name;
            (match ns with Some e -> Printf.sprintf "%.0f" e | None -> "-");
            (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-");
          ];
        row)
      selected
  in
  print_string (Diag.Table.render table);
  rows

(* The selected count kernels, each run once; every field is printed. *)
let run_counts ~only () =
  List.filter_map
    (fun (name, fn) ->
      if chosen only name then begin
        let fields = fn () in
        Printf.printf "%s:%s\n%!" name
          (String.concat ""
             (List.map
                (fun (k, v) -> Printf.sprintf " %s=%s" k (Obs.Json.to_string v))
                fields));
        Some (name, fields)
      end
      else None)
    counts

(* One git query's trimmed output; [None] outside a git checkout. *)
let git args =
  match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)

(* Where the numbers come from: the commit ("unknown" outside a git
   checkout), whether tracked files differed from it, the processors the
   machine offers and the compiler. *)
let provenance () =
  let commit =
    match git "rev-parse HEAD" with Some c when c <> "" -> c | _ -> "unknown"
  in
  let dirty =
    match git "status --porcelain --untracked-files=no" with
    | Some changes -> Obs.Json.Bool (changes <> "")
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    [
      ("commit", Obs.Json.String commit);
      ("dirty", dirty);
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Obs.Json.String Sys.ocaml_version);
    ]

(* BENCH_RESULTS.json: the machine-readable perf trajectory.  One document
   per bench run, one entry per registered kernel, so successive PRs can be
   diffed without scraping the rendered table. *)
let json_doc ~provenance rows count_rows =
  let opt_float = function Some v -> Obs.Json.Float v | None -> Obs.Json.Null in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sync-agreement/bench/v1");
      ("provenance", provenance);
      ("clock", Obs.Json.String "monotonic");
      ( "results",
        Obs.Json.List
          (List.map
             (fun (name, ns, r2) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String name);
                   ("ns_per_run", opt_float ns);
                   ("r_squared", opt_float r2);
                 ])
             rows) );
      ( "counts",
        Obs.Json.List
          (List.map
             (fun (name, fields) ->
               Obs.Json.Obj (("name", Obs.Json.String name) :: fields))
             count_rows) );
    ]

(* Each table runs in its own forked child; the parent spawns no domain
   until the kernels run. *)
let print_table e =
  match Harness.Experiment.in_child e (Harness.Experiment.print ~markdown:false) with
  | Ok () -> ()
  | Error why -> failwith ("bench: " ^ why)

let () =
  let json_file = ref None in
  let only = ref [] in
  let once = ref false in
  let no_tables = ref false in
  Arg.parse
    [
      ( "--json",
        Arg.String (fun f -> json_file := Some f),
        "FILE  also write the micro-benchmark estimates as JSON to FILE" );
      ( "--kernel",
        Arg.String (fun k -> only := k :: !only),
        "NAME  measure only the named kernel (repeatable)" );
      ( "--once",
        Arg.Set once,
        "  execute each selected kernel exactly once, untimed (smoke mode)" );
      ( "--no-tables",
        Arg.Set no_tables,
        "  skip the phase-1 reproduction tables" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--json FILE] [--kernel NAME] [--once] [--no-tables]";
  let known = List.map fst kernels @ List.map fst counts in
  (match List.find_opt (fun k -> not (List.mem k known)) !only with
  | Some k ->
    Printf.eprintf "unknown kernel %S (known: %s)\n" k (String.concat ", " known);
    exit 2
  | None -> ());
  if not !no_tables then begin
    print_endline
      "=== Reproduction tables (one experiment per paper artefact) ===\n";
    List.iter print_table Harness.Registry.all
  end;
  if !once then begin
    (* CI smoke mode: prove the kernels run, skip the statistics. *)
    List.iter
      (fun (name, fn) ->
        if chosen !only name then begin
          fn ();
          Printf.printf "ran %s\n%!" name
        end)
      kernels;
    ignore (run_counts ~only:!only ());
    exit 0
  end;
  print_endline "=== Micro-benchmarks ===\n";
  (* Before any kernel spawns a domain: reading the commit starts a
     process. *)
  let provenance = provenance () in
  let rows = run_benchmarks ~only:!only () in
  let count_rows = run_counts ~only:!only () in
  match !json_file with
  | None -> ()
  | Some file ->
    (* Write-to-temp + rename: a reader (or a crashed run) never observes a
       truncated BENCH_RESULTS.json, and the old document survives any
       failure before the rename. *)
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Obs.Json.to_string (json_doc ~provenance rows count_rows));
        output_char oc '\n');
    Sys.rename tmp file;
    Printf.printf "wrote %s\n" file

(** EXP-SERVE — consensus as a service: multiplexed RWWC storms.

    Runs thousands of concurrent Figure 1 instances through the serve
    layer's deterministic loopback — five real socket engines stepped over
    [socketpair]s on a virtual clock — and reports the three claims the
    serve layer makes: storms complete and stay judge-clean at
    scale, batching collapses write calls without changing any decision,
    and a mid-storm coordinator kill degrades per-instance (survivors ride
    out one expired round each) rather than globally.

    Every storm's per-instance transcripts are verified by {!Live.Judge}
    including the differential comparison against the abstract engine, so
    the throughput numbers can never drift away from correctness.  Wall
    decisions/sec is machine-local; every other column is deterministic. *)

let storm ?(n = 5) ?(t = 2) ?(window = 64) ?(batch = true) ?kill instances =
  Serve.Loopback.Rwwc.run
    {
      Serve.Loopback.Rwwc.n;
      t;
      instances;
      window;
      big_d = 0.25;
      batch;
      kill;
      max_rounds = None;
      proposals = (fun i node -> (i * n) + node);
    }

let require_ok label (r : Serve.Report.t) =
  if not r.Serve.Report.ok then
    failwith
      (Printf.sprintf "EXP-SERVE: %s: %d judged instance(s) failed" label
         (List.length r.Serve.Report.failures));
  r

let scaling_table () =
  let table =
    Diag.Table.create
      ~title:
        "storm scaling (loopback, n = 5, t = 2, window = 64): every \
         instance judged against the abstract engine"
      ~header:
        [
          "instances";
          "completed";
          "fast rounds";
          "expired";
          "slab slots";
          "judged";
          "verdict";
        ]
      ()
  in
  List.iter
    (fun instances ->
      let r = require_ok (Printf.sprintf "scaling %d" instances) (storm instances) in
      Diag.Table.add_row table
        [
          Diag.Table.fmt_int instances;
          Diag.Table.fmt_int r.Serve.Report.completed;
          Diag.Table.fmt_int r.Serve.Report.total.Serve.Stats.fast_rounds;
          Diag.Table.fmt_int r.Serve.Report.total.Serve.Stats.expired_rounds;
          Diag.Table.fmt_int r.Serve.Report.total.Serve.Stats.slab_capacity;
          Diag.Table.fmt_int r.Serve.Report.judged;
          "pass";
        ])
    [ 100; 500; 1000; 2000 ];
  table

let batching_table () =
  let instances = 500 in
  let batched = require_ok "batched" (storm ~batch:true instances) in
  let unbatched = require_ok "unbatched" (storm ~batch:false instances) in
  let b = batched.Serve.Report.total and u = unbatched.Serve.Report.total in
  (* The acceptance bar: coalescing must collapse write calls by >= 4x
     while the storm decides identically. *)
  if b.Serve.Stats.write_calls * 4 > u.Serve.Stats.write_calls then
    failwith
      (Printf.sprintf
         "EXP-SERVE: batching saved too little (%d vs %d write calls)"
         b.Serve.Stats.write_calls u.Serve.Stats.write_calls);
  if batched.Serve.Report.completed <> unbatched.Serve.Report.completed then
    failwith "EXP-SERVE: batching changed the set of completed instances";
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "per-destination batching (loopback, n = 5, %d instances): same \
            decisions, fewer write calls"
           instances)
      ~header:
        [ "mode"; "frames out"; "write calls"; "max coalesced"; "flushes" ]
      ()
  in
  List.iter
    (fun (mode, (s : Serve.Stats.t)) ->
      Diag.Table.add_row table
        [
          mode;
          Diag.Table.fmt_int s.Serve.Stats.frames_out;
          Diag.Table.fmt_int s.Serve.Stats.write_calls;
          Diag.Table.fmt_int s.Serve.Stats.max_batch;
          Diag.Table.fmt_int s.Serve.Stats.flushes;
        ])
    [ ("batched", b); ("--no-batch", u) ];
  table

let kill_table () =
  let instances = 300 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "mid-storm coordinator kill (loopback, n = 5, t = 2, %d \
            instances, kill p1 after k mesh frames): surviving instances \
            stay judge-clean"
           instances)
      ~header:
        [
          "kill after";
          "completed";
          "victim decided";
          "expired rounds";
          "judged";
          "verdict";
        ]
      ()
  in
  List.iter
    (fun after_frames ->
      let r =
        require_ok
          (Printf.sprintf "kill@%d" after_frames)
          (storm ~kill:{ Serve.Report.node = 1; after_frames } instances)
      in
      let victim_decides =
        match List.assoc_opt 1 r.Serve.Report.stats with
        | Some s -> s.Serve.Stats.decides
        | None -> 0
      in
      Diag.Table.add_row table
        [
          Diag.Table.fmt_int after_frames;
          Diag.Table.fmt_int r.Serve.Report.completed;
          Diag.Table.fmt_int victim_decides;
          Diag.Table.fmt_int r.Serve.Report.total.Serve.Stats.expired_rounds;
          Diag.Table.fmt_int r.Serve.Report.judged;
          "pass";
        ])
    [ 1; 57; 157; 400 ];
  table

let run () = [ scaling_table (); batching_table (); kill_table () ]

let experiment =
  {
    Experiment.id = "SERVE";
    title = "consensus as a service: multiplexed storms, batching, kills";
    paper_ref = "Figure 1 algorithm as a long-lived multiplexed service";
    run;
  }

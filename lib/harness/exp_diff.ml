(** EXP-DIFF — the differential conformance oracle over the canonical sweep.

    Every other experiment validates one execution of the Figure 1 protocol
    against the paper's spec; this one validates the executions against
    {e each other}.  For every canonical crash schedule at n = 4 the oracle
    ({!Minimize.Oracle.check_schedule}) runs the abstract engine twice
    (fresh-allocation [run] and reused-scratch [runner]) and the
    reference semantics, all three compared on the full observable
    result, and the timed LAN realization (compared on decisions,
    decision rounds and crash-set).  A second table replays the
    chaos storm seeds through the masked transport.  Any disagreement
    anywhere fails the experiment — zero is the only acceptable column. *)

let n = 4
let t = 2
let max_round = 3

let schedule_table () =
  let rwwc = Minimize.Algo.get "rwwc" in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "cross-engine differential check, canonical rwwc sweep (n = %d, \
            t = %d, crashes in rounds 1..%d; disagreements must be 0)"
           n t max_round)
      ~header:
        [
          "max f";
          "classes checked";
          "engine-pair disagreements";
          "timed-lane runs";
          "timed-lane skipped (non-prefix)";
          "timed disagreements";
        ]
      ()
  in
  for max_f = 0 to 2 do
    let classes = ref 0 and timed_runs = ref 0 and skipped = ref 0 in
    let disagreements = ref 0 in
    Seq.iter
      (fun schedule ->
        incr classes;
        match Minimize.Oracle.check_schedule ~n ~t schedule with
        | Minimize.Oracle.Agree lanes ->
          List.iter
            (fun lane ->
              if lane.Minimize.Oracle.name = "timed-lan" then
                if lane.Minimize.Oracle.note = "" then incr timed_runs
                else incr skipped)
            lanes
        | Minimize.Oracle.Disagree { diffs; _ } ->
          incr disagreements;
          failwith
            (Printf.sprintf "EXP-DIFF: engines disagree on %s: %s"
               (Model.Schedule.to_string schedule)
               (String.concat "; " diffs)))
      (Minimize.Algo.space rwwc ~symmetry:true ~n ~t ~max_f ~max_round);
    Diag.Table.add_row table
      [
        Diag.Table.fmt_int max_f;
        Diag.Table.fmt_int !classes;
        "0";
        Diag.Table.fmt_int !timed_runs;
        Diag.Table.fmt_int !skipped;
        Diag.Table.fmt_int !disagreements;
      ]
  done;
  table

let masked_table () =
  let table =
    Diag.Table.create
      ~title:
        "masked-transport differential check (n = 6, storm seeds; wrong \
         must be 0)"
      ~header:[ "drop rate"; "retry budget"; "seeds"; "masked"; "detected"; "wrong" ]
      ()
  in
  List.iter
    (fun (drop, budget) ->
      let masked = ref 0 and detected = ref 0 and wrong = ref 0 in
      for seed = 1 to 10 do
        let faults =
          Adversary.Net_faults.network_storm ~drop ~duplicate:(drop /. 2.0)
            ~jitter:0.2 ~jitter_spread:2.5
            ~seed:(Int64.of_int (2000 + seed))
            ()
        in
        match
          Minimize.Oracle.check_masked ~budget ~faults
            ~seed:(Int64.of_int seed) ()
        with
        | Minimize.Oracle.Masked, _ -> incr masked
        | Minimize.Oracle.Detected _, _ -> incr detected
        | Minimize.Oracle.Wrong why, _ ->
          incr wrong;
          failwith
            (Printf.sprintf
               "EXP-DIFF: wrong masked run (drop %.2f budget %d seed %d): %s"
               drop budget seed why)
      done;
      Diag.Table.add_row table
        [
          Printf.sprintf "%.2f" drop;
          Diag.Table.fmt_int budget;
          "10";
          Diag.Table.fmt_int !masked;
          Diag.Table.fmt_int !detected;
          Diag.Table.fmt_int !wrong;
        ])
    [ (0.0, 0); (0.1, 2); (0.25, 3) ];
  table

let run () = [ schedule_table (); masked_table () ]

let experiment =
  {
    Experiment.id = "DIFF";
    title = "differential conformance: five lanes, zero disagreements";
    paper_ref = "verification harness (Sections 2.1-2.2 cross-checked)";
    run;
  }

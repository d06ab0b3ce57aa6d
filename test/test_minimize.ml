(* Minimize: greedy shrinker, schedule/script reductions, differential
   oracle and replayable repro artifacts.

   The qcheck properties pin the shrinker's contract — deterministic,
   sound (the minimum still fails), 1-minimal (no single reduction of the
   minimum fails) — over random failing schedules of the broken
   [data-decide] ablation.  The differential section asserts the headline
   EXP-DIFF claim directly: zero cross-engine disagreements over the full
   canonical n = 4 sweep. *)

open Model

let data_decide =
  match Minimize.Algo.find "data-decide" with
  | Ok a -> a
  | Error why -> failwith why

let property_fails algo ~n ~t ~property schedule =
  let res = algo.Minimize.Algo.runner ~n ~t schedule in
  List.exists
    (fun c -> c.Spec.Properties.name = property && not c.Spec.Properties.ok)
    (Minimize.Algo.checks algo ~t res)

let shrink algo ~n ~t ~property schedule =
  Minimize.Shrink.run ~reductions:Adversary.Enumerate.reductions
    ~still_fails:(property_fails algo ~n ~t ~property)
    schedule

(* --- Enumerate.weight / Enumerate.reductions ---------------------------- *)

let schedule_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* f = int_range 0 2 in
  let rng = Prng.Rng.of_int seed in
  return
    (Adversary.Strategies.random ~rng ~model:Model_kind.Extended ~n:4 ~f
       ~max_round:3)

let test_reductions_strictly_lighter =
  Helpers.qtest "every reduction strictly decreases the weight" schedule_gen
    (fun schedule ->
      let w = Adversary.Enumerate.weight schedule in
      Seq.for_all
        (fun s -> Adversary.Enumerate.weight s < w)
        (Adversary.Enumerate.reductions schedule))

let test_reductions_empty_iff_failure_free =
  Helpers.qtest "reductions are empty exactly on the failure-free schedule"
    schedule_gen (fun schedule ->
      let empty = Schedule.bindings schedule = [] in
      let no_reductions =
        Seq.is_empty (Adversary.Enumerate.reductions schedule)
      in
      empty = no_reductions)

let test_reductions_deterministic =
  Helpers.qtest "reductions enumerate in a fixed order" schedule_gen
    (fun schedule ->
      let strings s =
        List.map Schedule.to_string
          (List.of_seq (Adversary.Enumerate.reductions s))
      in
      strings schedule = strings schedule)

(* --- Shrink: deterministic, sound, 1-minimal ----------------------------- *)

(* Random schedules for the broken variant; schedules that happen to pass
   make the property trivially true, failing ones exercise the descent. *)
let shrink_outcome schedule =
  match Minimize.Algo.violation data_decide ~n:4 ~t:2 schedule with
  | None -> None
  | Some check ->
    let property = check.Spec.Properties.name in
    Some (property, shrink data_decide ~n:4 ~t:2 ~property schedule)

let test_shrink_deterministic =
  Helpers.qtest ~count:120 "shrink: same input, same minimum" schedule_gen
    (fun schedule ->
      match (shrink_outcome schedule, shrink_outcome schedule) with
      | None, None -> true
      | Some (_, a), Some (_, b) ->
        Schedule.to_string a.Minimize.Shrink.minimal
        = Schedule.to_string b.Minimize.Shrink.minimal
        && a.Minimize.Shrink.steps = b.Minimize.Shrink.steps
        && a.Minimize.Shrink.candidates = b.Minimize.Shrink.candidates
      | _ -> false)

let test_shrink_sound =
  Helpers.qtest ~count:120 "shrink: the minimum still fails the property"
    schedule_gen (fun schedule ->
      match shrink_outcome schedule with
      | None -> true
      | Some (property, o) ->
        property_fails data_decide ~n:4 ~t:2 ~property
          o.Minimize.Shrink.minimal)

let test_shrink_one_minimal =
  Helpers.qtest ~count:120
    "shrink: every single-step reduction of the minimum passes" schedule_gen
    (fun schedule ->
      match shrink_outcome schedule with
      | None -> true
      | Some (property, o) ->
        Seq.for_all
          (fun s -> not (property_fails data_decide ~n:4 ~t:2 ~property s))
          (Adversary.Enumerate.reductions o.Minimize.Shrink.minimal))

let test_shrink_never_heavier =
  Helpers.qtest ~count:120 "shrink: the minimum is never heavier" schedule_gen
    (fun schedule ->
      match shrink_outcome schedule with
      | None -> true
      | Some (_, o) ->
        Adversary.Enumerate.weight o.Minimize.Shrink.minimal
        <= Adversary.Enumerate.weight o.Minimize.Shrink.original)

let test_shrink_rejects_passing_input () =
  Alcotest.check_raises "passing input is an invalid argument"
    (Invalid_argument
       "Minimize.Shrink.run: the input does not fail the property")
    (fun () ->
      ignore
        (Minimize.Shrink.run ~reductions:Adversary.Enumerate.reductions
           ~still_fails:(fun _ -> false)
           Schedule.empty))

(* The acceptance pin: the first failing schedule of the broken Data_decide
   sweep shrinks to the known 1-crash-event witness. *)
let test_data_decide_pinned_witness () =
  match
    Minimize.Algo.first_violation data_decide ~n:4 ~t:2 ~max_f:2 ~max_round:3
  with
  | None, _ -> Alcotest.fail "data-decide has no violation at n=4"
  | Some (schedule, check), _ ->
    let property = check.Spec.Properties.name in
    Alcotest.(check string) "violated property" "uniform-agreement" property;
    let o = shrink data_decide ~n:4 ~t:2 ~property schedule in
    Alcotest.(check string) "minimal witness" "p1@r1 during-data{p4}"
      (Schedule.to_string o.Minimize.Shrink.minimal)

(* --- Script reductions --------------------------------------------------- *)

let action_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Net.Fault_plan.Deliver;
      return Net.Fault_plan.Lose;
      (let* copies = list_size (int_range 0 3) (float_range 0.5 5.0) in
       return (Net.Fault_plan.Copies copies));
    ]

let script_gen = QCheck2.Gen.(array_size (int_range 0 12) action_gen)

let test_script_reductions_strictly_lighter =
  Helpers.qtest "script reductions strictly decrease the weight" script_gen
    (fun script ->
      let w = Minimize.Script.weight script in
      Seq.for_all
        (fun s -> Minimize.Script.weight s < w)
        (Minimize.Script.reductions script))

let test_script_reductions_empty_iff_faithful =
  Helpers.qtest "script reductions are empty exactly on all-Deliver"
    script_gen (fun script ->
      let faithful =
        Array.for_all (fun a -> a = Net.Fault_plan.Deliver) script
      in
      faithful = Seq.is_empty (Minimize.Script.reductions script))

let test_script_trim () =
  let open Net.Fault_plan in
  Alcotest.(check int) "trailing delivers dropped" 2
    (Array.length
       (Minimize.Script.trim [| Lose; Copies [ 1.0; 1.0 ]; Deliver; Deliver |]));
  Alcotest.(check int) "all-deliver trims to empty" 0
    (Array.length (Minimize.Script.trim [| Deliver; Deliver |]));
  Alcotest.(check int) "trailing fault is kept" 3
    (Array.length (Minimize.Script.trim [| Deliver; Deliver; Lose |]))

(* --- Differential oracle -------------------------------------------------- *)

(* The EXP-DIFF acceptance criterion, asserted directly: zero cross-engine
   disagreements over the full canonical n = 4 sweep (max_f = 2). *)
let test_oracle_full_canonical_sweep () =
  let n = 4 and t = 2 in
  let profile = Adversary.Canonical.rotating_coordinator ~n in
  let classes = ref 0 and timed = ref 0 in
  Seq.iter
    (fun schedule ->
      incr classes;
      match Minimize.Oracle.check_schedule ~n ~t schedule with
      | Minimize.Oracle.Agree lanes ->
        List.iter
          (fun lane ->
            if
              lane.Minimize.Oracle.name = "timed-lan"
              && lane.Minimize.Oracle.note = ""
            then incr timed)
          lanes
      | Minimize.Oracle.Disagree { diffs; _ } ->
        Alcotest.failf "engines disagree on %s: %s"
          (Schedule.to_string schedule)
          (String.concat "; " diffs))
    (Adversary.Canonical.schedules profile ~n ~max_f:2 ~max_round:3);
  Alcotest.(check int) "canonical classes covered" 263 !classes;
  Alcotest.(check bool) "timed lane ran on some classes" true (!timed > 0)

let test_oracle_masked_storm () =
  let faults =
    Adversary.Net_faults.network_storm ~drop:0.1 ~duplicate:0.05 ~jitter:0.2
      ~jitter_spread:2.5 ~seed:17L ()
  in
  match Minimize.Oracle.check_masked ~budget:2 ~faults ~seed:3L () with
  | Minimize.Oracle.Wrong why, _ -> Alcotest.failf "wrong decision: %s" why
  | (Minimize.Oracle.Masked | Minimize.Oracle.Detected _), injected ->
    Alcotest.(check bool) "storm injected faults" true (injected > 0)

(* --- Repro artifacts ------------------------------------------------------ *)

let roundtrip repro =
  match Minimize.Repro.of_json (Minimize.Repro.to_json repro) with
  | Ok r -> r
  | Error why -> Alcotest.failf "repro did not round-trip: %s" why

let witness_schedule =
  Schedule.of_list
    [
      ( Pid.of_int 1,
        Crash.make ~round:1 (Crash.During_data (Pid.set_of_ints [ 4 ])) );
    ]

let consensus_repro =
  {
    Minimize.Repro.n = 4;
    t = 2;
    case =
      Minimize.Repro.Consensus
        {
          algo = "data-decide";
          schedule = witness_schedule;
          property = "uniform-agreement";
        };
    steps = 0;
    candidates = 2;
    one_minimal = true;
  }

let test_repro_json_roundtrip () =
  let check_case repro =
    let r = roundtrip repro in
    Alcotest.(check string) "same document"
      (Obs.Json.to_string (Minimize.Repro.to_json repro))
      (Obs.Json.to_string (Minimize.Repro.to_json r))
  in
  check_case consensus_repro;
  check_case
    {
      consensus_repro with
      case = Minimize.Repro.Cross_engine { schedule = witness_schedule };
    };
  check_case
    {
      Minimize.Repro.n = 6;
      t = 4;
      case =
        Minimize.Repro.Chaos
          {
            budget = 2;
            engine_seed = 9L;
            actions =
              [|
                Net.Fault_plan.Lose;
                Net.Fault_plan.Copies [ 1.25; 3.5 ];
                Net.Fault_plan.Deliver;
              |];
          };
      steps = 3;
      candidates = 11;
      one_minimal = false;
    }

let test_repro_save_load_replay () =
  let file = Filename.temp_file "minimize" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Minimize.Repro.save ~file consensus_repro;
      Alcotest.(check bool) "no stale tmp file" false
        (Sys.file_exists (file ^ ".tmp"));
      match Minimize.Repro.load file with
      | Error e ->
        Alcotest.failf "load failed: %s" (Minimize.Repro.load_error_to_string e)
      | Ok r -> (
        match Minimize.Repro.replay r with
        | Ok (detail :: _) ->
          Alcotest.(check bool) "detail names the property" true
            (Helpers.contains_substring detail "uniform-agreement")
        | Ok [] -> Alcotest.fail "replay returned no details"
        | Error why -> Alcotest.failf "replay failed: %s" why))

let test_repro_replay_rejects_passing () =
  (* A schedule the correct rwwc masters must not "reproduce". *)
  let repro =
    {
      consensus_repro with
      case =
        Minimize.Repro.Consensus
          {
            algo = "rwwc";
            schedule = witness_schedule;
            property = "uniform-agreement";
          };
    }
  in
  match Minimize.Repro.replay repro with
  | Ok _ -> Alcotest.fail "replay claimed a violation on correct rwwc"
  | Error why ->
    Alcotest.(check bool) "explains the non-reproduction" true
      (Helpers.contains_substring why "did not reproduce")

let test_repro_load_errors () =
  (match Minimize.Repro.load "/nonexistent/minimize-repro.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error e ->
    Alcotest.(check string) "names the missing file"
      "/nonexistent/minimize-repro.json" e.Minimize.Repro.file);
  let file = Filename.temp_file "minimize" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let write contents =
        let oc = open_out file in
        output_string oc contents;
        close_out oc
      in
      (* [load] must come back as a structured [Error] on every corrupted
         artifact below — never raise. *)
      let expect_error what contents check =
        write contents;
        match Minimize.Repro.load file with
        | Ok _ -> Alcotest.failf "%s: load accepted a corrupt artifact" what
        | Error e -> check e
        | exception e ->
          Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
      in
      expect_error "unsupported version" "{\"version\":999}" (fun e ->
          Alcotest.(check bool) "reason mentions the version" true
            (Helpers.contains_substring e.Minimize.Repro.reason "version"));
      (* Truncated save: a prefix of a real artifact is a JSON syntax
         error, and the error carries the offending byte offset. *)
      let valid =
        Obs.Json.to_string (Minimize.Repro.to_json consensus_repro)
      in
      expect_error "truncated artifact"
        (String.sub valid 0 (String.length valid / 2))
        (fun e ->
          Alcotest.(check bool) "syntax error carries an offset" true
            (e.Minimize.Repro.offset <> None));
      (* Schema-valid JSON whose pid is out of range: [Pid.of_int 0]
         raises [Invalid_argument] internally; load must absorb it. *)
      expect_error "pid out of range"
        {|{"version":1,"n":4,"t":2,"case":{"kind":"consensus","algo":"rwwc","schedule":[{"pid":0,"round":1,"point":{"kind":"before_send"}}],"property":"uniform-agreement"},"shrink_steps":0,"shrink_candidates":0,"one_minimal":false}|}
        (fun e ->
          Alcotest.(check bool) "reason mentions the pid" true
            (Helpers.contains_substring e.Minimize.Repro.reason "Pid"));
      (* Deeply nested garbage: the parser rejects it at its depth bound
         instead of overflowing the stack. *)
      expect_error "deeply nested garbage"
        (String.concat "" (List.init 100_000 (fun _ -> "[")))
        (fun e ->
          Alcotest.(check bool) "rejected at the depth bound" true
            (Helpers.contains_substring e.Minimize.Repro.reason "nesting"));
      (* Single-byte corruption anywhere in a valid artifact must never
         raise; flipping a byte may still leave a loadable document, so
         only the no-exception guarantee is asserted. *)
      String.iteri
        (fun i _ ->
          let mangled = Bytes.of_string valid in
          Bytes.set mangled i '\255';
          write (Bytes.to_string mangled);
          match Minimize.Repro.load file with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "byte flip at %d: load raised %s" i
              (Printexc.to_string e))
        valid)

(* --- Algo registry -------------------------------------------------------- *)

let test_algo_registry () =
  Alcotest.(check (list string)) "registry names"
    [
      "rwwc";
      "data-decide";
      "ascending-commit";
      "piggyback-commit";
      "flood";
      "early-stopping";
    ]
    Minimize.Algo.names;
  (match Minimize.Algo.find "no-such-algo" with
  | Ok _ -> Alcotest.fail "found a nonexistent algorithm"
  | Error why ->
    Alcotest.(check bool) "error lists the valid names" true
      (Helpers.contains_substring why "rwwc"));
  List.iter
    (fun name ->
      match Minimize.Algo.find name with
      | Error why -> Alcotest.failf "%s: %s" name why
      | Ok a ->
        let correct =
          fst (Minimize.Algo.first_violation a ~n:4 ~t:2 ~max_f:2 ~max_round:3)
          = None
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: broken flag matches the sweep" name)
          a.Minimize.Algo.broken (not correct))
    Minimize.Algo.names

let () =
  Alcotest.run "minimize"
    [
      ( "reductions",
        [
          test_reductions_strictly_lighter;
          test_reductions_empty_iff_failure_free;
          test_reductions_deterministic;
        ] );
      ( "shrink",
        [
          test_shrink_deterministic;
          test_shrink_sound;
          test_shrink_one_minimal;
          test_shrink_never_heavier;
          Alcotest.test_case "rejects-passing-input" `Quick
            test_shrink_rejects_passing_input;
          Alcotest.test_case "data-decide-pinned-witness" `Quick
            test_data_decide_pinned_witness;
        ] );
      ( "script",
        [
          test_script_reductions_strictly_lighter;
          test_script_reductions_empty_iff_faithful;
          Alcotest.test_case "trim" `Quick test_script_trim;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "full-canonical-sweep-agrees" `Slow
            test_oracle_full_canonical_sweep;
          Alcotest.test_case "masked-storm" `Quick test_oracle_masked_storm;
        ] );
      ( "repro",
        [
          Alcotest.test_case "json-roundtrip" `Quick test_repro_json_roundtrip;
          Alcotest.test_case "save-load-replay" `Quick
            test_repro_save_load_replay;
          Alcotest.test_case "replay-rejects-passing" `Quick
            test_repro_replay_rejects_passing;
          Alcotest.test_case "load-errors" `Quick test_repro_load_errors;
        ] );
      ( "algo",
        [ Alcotest.test_case "registry" `Quick test_algo_registry ] );
    ]

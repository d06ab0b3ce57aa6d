(* Tests for the lower-bound machinery: stepper vs engine cross-validation,
   truncation counterexamples, tightness certificates and valence
   analysis. *)

open Model
open Sync_sim

module S = Lower_bound.Stepper.Make (Core.Rwwc)
module Ex = Lower_bound.Explorer.Make (Core.Rwwc)
module Biv = Lower_bound.Bivalency.Make (Core.Rwwc)

module Piggyback =
  Lower_bound.Algo_intf.Of_list (Core.Rwwc_variants.Piggyback_commit)

(* Drive the stepper with the per-round crashes of a complete schedule (all
   of a round's crashes in one step) and compare the final statuses with
   the engine's; the engine stops after round t + 2, and so do we. *)
module Replay (A : Lower_bound.Algo_intf.S) = struct
  module S = Lower_bound.Stepper.Make (A)
  module E = Engine.Make_flat (A)

  let statuses_agree ~n ~t ~proposals schedule =
    let rec go config =
      if S.running config = [] || config.S.next_round > t + 2 then config
      else
        let crashes =
          List.filter_map
            (fun (pid, (ev : Crash.event)) ->
              if
                ev.round = config.S.next_round
                && List.exists (Pid.equal pid) (S.running config)
              then Some (pid, ev.point)
              else None)
            (Schedule.bindings schedule)
        in
        go (S.step config ~crashes)
    in
    let cfg = Engine.config ~schedule ~n ~t ~proposals () in
    (E.run cfg).Run_result.statuses = S.statuses (go (S.initial cfg))
end

let test_stepper_matches_engine_exhaustively () =
  let n = 4 and t = 2 in
  let proposals = [| 4; 5; 6; 7 |] in
  let module Rwwc = Replay (Core.Rwwc) in
  let module Piggy = Replay (Piggyback) in
  let checked = ref 0 in
  Seq.iter
    (fun schedule ->
      incr checked;
      List.iter
        (fun (name, agree) ->
          if not (agree ~n ~t ~proposals schedule) then
            Alcotest.failf "%s: stepper and engine disagree on %s" name
              (Schedule.to_string schedule))
        [
          ("rwwc", Rwwc.statuses_agree);
          ("piggyback-commit", Piggy.statuses_agree);
        ])
    (Adversary.Enumerate.schedules ~model:Model_kind.Extended ~n ~max_f:2
       ~max_round:3);
  Alcotest.(check int) "every schedule, several crashes per round" 10753
    !checked

let test_stepper_guards () =
  let c = S.initial (Engine.config ~n:3 ~t:0 ~proposals:[| 1; 2; 3 |] ()) in
  Alcotest.(check bool) "budget enforced" true
    (try
       ignore (S.step c ~crashes:[ (Pid.of_int 1, Crash.Before_send) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "t = n rejected" true
    (try
       ignore (S.initial (Engine.config ~n:3 ~t:3 ~proposals:[| 1; 2; 3 |] ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "round counter" 1 c.S.next_round;
  let c' = S.step c ~crashes:[] in
  Alcotest.(check int) "advances" 2 c'.S.next_round;
  Alcotest.(check (list int)) "all decided after round 1" [ 1 ]
    (S.decided_values c')

let test_stepper_fingerprint_distinguishes () =
  let initial proposals = S.initial (Engine.config ~n:3 ~t:1 ~proposals ()) in
  let a = initial [| 1; 2; 3 |] and b = initial [| 9; 2; 3 |] in
  Alcotest.(check bool) "different proposals differ" false
    (S.fingerprint a = S.fingerprint b);
  Alcotest.(check bool) "same config same print" true
    (S.fingerprint a = S.fingerprint (initial [| 1; 2; 3 |]))

(* Under [`Announce] a decided process keeps sending, so what it has heard
   since deciding is part of the configuration: every process announces its
   own proposal in round 1 and keeps the largest value it has heard. *)
module Announcer = Lower_bound.Algo_intf.Of_list (struct
  type msg = int
  type state = { me : int; n : int; proposal : int; heard : int }

  let name = "announcer"
  let model = Model_kind.Classic
  let decision_mode = `Announce
  let msg_bits ~value_bits _ = value_bits
  let pp_msg = Format.pp_print_int
  let init ~n ~t:_ ~me ~proposal =
    { me = Pid.to_int me; n; proposal; heard = proposal }

  let data_sends s ~round:_ =
    List.filter_map
      (fun d -> if Pid.to_int d = s.me then None else Some (d, s.heard))
      (Pid.all ~n:s.n)

  let sync_sends _ ~round:_ = []

  let compute s ~round ~data ~syncs:_ =
    let heard = List.fold_left (fun acc (_, v) -> max acc v) s.heard data in
    ({ s with heard }, if round = 1 then Some s.proposal else None)

  let estimate s = s.heard
  let fingerprint s = string_of_int s.heard
end)

let test_stepper_fingerprint_announced_state () =
  let module S = Lower_bound.Stepper.Make (Announcer) in
  let c = S.initial (Engine.config ~n:3 ~t:1 ~proposals:[| 1; 2; 3 |] ()) in
  let p3_reaches only =
    S.step c
      ~crashes:[ (Pid.of_int 3, Crash.During_data (Pid.set_of_ints [ only ])) ]
  in
  let a = p3_reaches 1 and b = p3_reaches 2 in
  Alcotest.(check bool) "same outcomes" true (S.statuses a = S.statuses b);
  Alcotest.(check bool) "announced processes still active" true
    a.S.procs.(0).S.active;
  Alcotest.(check bool) "what they heard tells them apart" false
    (S.fingerprint a = S.fingerprint b)

(* --- Truncation ----------------------------------------------------------- *)

module Trunc1 =
  Lower_bound.Truncated.Make
    (Core.Rwwc)
    (struct
      let decide_by = 1
    end)

module Trunc_runner = Engine.Make (Trunc1)

let test_truncated_forces_decisions () =
  let res =
    Trunc_runner.run
      (Engine.config ~n:4 ~t:2
         ~schedule:
           (Schedule.of_list
              [ (Pid.of_int 1, Crash.make ~round:1 Crash.Before_send) ])
         ~proposals:[| 1; 2; 3; 4 |] ())
  in
  (* Everyone alive decided at round 1 (their own estimates: nothing was
     received), violating agreement. *)
  Alcotest.(check int) "one round" 1 res.Run_result.rounds_executed;
  Alcotest.(check bool) "agreement violated" false
    (Spec.Properties.all_ok [ Spec.Properties.uniform_agreement res ])

let test_truncated_preserves_normal_decisions () =
  (* Without crashes the truncation never fires: same outcome as native. *)
  let res =
    Trunc_runner.run
      (Engine.config ~n:4 ~t:2 ~proposals:[| 7; 2; 3; 4 |] ())
  in
  Alcotest.(check (list int)) "decides 7" [ 7 ] (Run_result.decided_values res)

(* --- Explorer ------------------------------------------------------------- *)

let test_tightness_all_f () =
  let n = 7 in
  for f = 0 to n - 2 do
    Alcotest.(check int)
      (Printf.sprintf "f=%d forces round f+1" f)
      (f + 1)
      (Ex.tightness ~n ~f ~proposals:(Engine.distinct_proposals n))
  done

let test_truncation_violation_found () =
  let n = 5 in
  for decide_by = 1 to 3 do
    match
      Ex.truncation_violation ~n ~decide_by
        ~proposals:(Engine.distinct_proposals n)
    with
    | None ->
      Alcotest.fail
        (Printf.sprintf "no violation found for decide_by=%d" decide_by)
    | Some w ->
      (* The witness schedule must be within the claimed adversary power. *)
      Alcotest.(check bool) "f <= decide_by" true
        (Schedule.f w.Lower_bound.Explorer.schedule <= decide_by);
      Alcotest.(check bool) "crashes within rounds 1..decide_by" true
        (Schedule.max_crash_round w.Lower_bound.Explorer.schedule <= decide_by);
      (* And the run must genuinely violate uniform agreement or validity. *)
      Alcotest.(check bool) "violates" false
        (Spec.Properties.all_ok
           [
             Spec.Properties.uniform_agreement w.Lower_bound.Explorer.result;
             Spec.Properties.validity w.Lower_bound.Explorer.result;
           ])
  done

(* The search's witnesses against the registry: at n = 4, t = 2 the broken
   ablations reach a configuration with two decided values, and the
   schedule rebuilt from it violates on the engine; rwwc reaches none. *)
let search_disagreement (module A : Lower_bound.Algo_intf.S) ~n ~t =
  let module S = Lower_bound.Stepper.Make (A) in
  let disagree c = List.length (S.decided_values c) > 1 in
  let nodes =
    S.search ~per_round:t ~stop:disagree
      (S.initial
         (Engine.config ~n ~t ~proposals:(Engine.distinct_proposals n) ()))
  in
  let last = nodes.(Array.length nodes - 1) in
  if disagree last.S.config then Some (S.schedule last) else None

let test_witnesses_violate_on_engine () =
  let n = 4 and t = 2 in
  List.iter
    (fun (name, algo) ->
      match search_disagreement algo ~n ~t with
      | None -> Alcotest.failf "%s: no disagreement found" name
      | Some schedule ->
        Alcotest.(check bool)
          (Printf.sprintf "%s witness %s violates" name
             (Schedule.to_string schedule))
          true
          (Minimize.Algo.violation (Minimize.Algo.get name) ~n ~t schedule
          <> None))
    [
      ( "data-decide",
        (module Lower_bound.Algo_intf.Of_list (Core.Rwwc_variants.Data_decide)
        : Lower_bound.Algo_intf.S) );
      ("piggyback-commit", (module Piggyback : Lower_bound.Algo_intf.S));
    ];
  Alcotest.(check bool) "rwwc: none" true
    (search_disagreement (module Core.Rwwc) ~n ~t = None)

let test_zero_round_case () =
  Alcotest.(check bool) "distinct proposals" true
    (Ex.zero_round_impossible ~proposals:[| 1; 2; 3 |]);
  Alcotest.(check bool) "identical proposals" false
    (Ex.zero_round_impossible ~proposals:[| 5; 5; 5 |])

(* --- Bivalency ------------------------------------------------------------ *)

let test_initial_bivalent_binary () =
  let r = Biv.analyze ~n:3 ~t:1 ~proposals:[| 0; 1; 1 |] in
  (match r.Lower_bound.Bivalency.initial_valence with
  | Lower_bound.Bivalency.Bivalent vs ->
    Alcotest.(check (list int)) "both reachable" [ 0; 1 ] vs
  | Lower_bound.Bivalency.Univalent v ->
    Alcotest.fail (Printf.sprintf "unexpectedly univalent(%d)" v));
  Alcotest.(check bool) "no decision in bivalent configs" false
    r.Lower_bound.Bivalency.bivalent_with_decision

let test_univalent_when_no_budget () =
  (* t = 0: the adversary cannot crash anyone, so p1 always imposes 0. *)
  let r = Biv.analyze ~n:3 ~t:0 ~proposals:[| 0; 1; 1 |] in
  match r.Lower_bound.Bivalency.initial_valence with
  | Lower_bound.Bivalency.Univalent 0 -> ()
  | v ->
    Alcotest.fail
      (Format.asprintf "expected univalent(0), got %a"
         Lower_bound.Bivalency.pp_valence v)

let test_univalent_on_unanimity () =
  (* Validity forces unanimity to be univalent regardless of crashes. *)
  let r = Biv.analyze ~n:3 ~t:1 ~proposals:[| 4; 4; 4 |] in
  match r.Lower_bound.Bivalency.initial_valence with
  | Lower_bound.Bivalency.Univalent 4 -> ()
  | v ->
    Alcotest.fail
      (Format.asprintf "expected univalent(4), got %a"
         Lower_bound.Bivalency.pp_valence v)

let test_bivalent_depth_grows_with_t () =
  (* Bivalence can be retained one round per spendable crash beyond the one
     needed to steer the outcome: depth t-1 for the Figure 1 algorithm. *)
  let depth ~n ~t =
    (Biv.analyze ~n ~t
       ~proposals:(Array.init n (fun i -> if i = 0 then 0 else 1)))
      .Lower_bound.Bivalency.max_bivalent_depth
  in
  Alcotest.(check int) "n=3 t=1" 0 (depth ~n:3 ~t:1);
  Alcotest.(check int) "n=4 t=2" 1 (depth ~n:4 ~t:2);
  Alcotest.(check int) "n=5 t=3" 2 (depth ~n:5 ~t:3)

let test_reachable_values_mid_run () =
  (* After p1 crashes delivering only to p2, both 0 (if p2 survives) and 1
     (if p2 is also crashed) remain reachable with budget 2. *)
  let c = S.initial (Engine.config ~n:4 ~t:2 ~proposals:[| 0; 1; 1; 1 |] ()) in
  let c' =
    S.step c
      ~crashes:[ (Pid.of_int 1, Crash.During_data (Pid.set_of_ints [ 2 ])) ]
  in
  Alcotest.(check (list int)) "bivalent after round 1" [ 0; 1 ]
    (Biv.reachable_values c')

let () =
  Alcotest.run "lower_bound"
    [
      ( "stepper",
        [
          Alcotest.test_case "matches-engine" `Quick test_stepper_matches_engine_exhaustively;
          Alcotest.test_case "guards" `Quick test_stepper_guards;
          Alcotest.test_case "fingerprint" `Quick test_stepper_fingerprint_distinguishes;
          Alcotest.test_case "announce-fingerprint" `Quick
            test_stepper_fingerprint_announced_state;
        ] );
      ( "truncated",
        [
          Alcotest.test_case "forces" `Quick test_truncated_forces_decisions;
          Alcotest.test_case "transparent" `Quick test_truncated_preserves_normal_decisions;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "tightness" `Quick test_tightness_all_f;
          Alcotest.test_case "violations" `Quick test_truncation_violation_found;
          Alcotest.test_case "witnesses-on-engine" `Quick
            test_witnesses_violate_on_engine;
          Alcotest.test_case "zero-round" `Quick test_zero_round_case;
        ] );
      ( "bivalency",
        [
          Alcotest.test_case "initial-bivalent" `Quick test_initial_bivalent_binary;
          Alcotest.test_case "no-budget" `Quick test_univalent_when_no_budget;
          Alcotest.test_case "unanimity" `Quick test_univalent_on_unanimity;
          Alcotest.test_case "depth" `Quick test_bivalent_depth_grows_with_t;
          Alcotest.test_case "mid-run" `Quick test_reachable_values_mid_run;
        ] );
    ]

(* Tests for the symmetry reduction (Adversary.Canonical): point-class
   pins, idempotence, representative membership, engine-level equivalence
   of a schedule and its canonical form, and full-vs-reduced sweep verdict
   equality — including for a deliberately broken variant, so the quotient
   is shown to preserve violations, not just their absence. *)

open Model
open Sync_sim

let rotating4 = Adversary.Canonical.rotating_coordinator ~n:4

let full_ext4 () =
  Adversary.Enumerate.schedules ~model:Model_kind.Extended ~n:4 ~max_f:2
    ~max_round:3

module Rwwc_run = Engine.Make (Core.Rwwc)
module Broken_run = Engine.Make (Core.Rwwc_variants.Data_decide)
module Flood_run = Engine.Make (Baselines.Flood_set)

let proposals4 = Harness.Workloads.distinct 4

(* A run's observable outcome, minus the trace: per-process statuses, round
   and wire accounting.  Equivalent schedules must agree on all of it. *)
let fingerprint (r : Run_result.t) =
  ( Array.to_list r.Run_result.statuses,
    r.Run_result.rounds_executed,
    r.Run_result.data_msgs,
    r.Run_result.data_bits,
    r.Run_result.sync_msgs,
    r.Run_result.sync_bits )

let test_canonical_point_classes () =
  let point = Alcotest.testable Crash.pp_point Crash.equal_point in
  let c ~victim ~round pt =
    Adversary.Canonical.canonical_point rotating4 ~victim:(Pid.of_int victim)
      ~round pt
  in
  (* Victim 2 in its own round plans data to {3,4} and 2 syncs. *)
  Alcotest.check point "undelivered dest dropped from the subset"
    (Crash.During_data (Pid.set_of_ints [ 3 ]))
    (c ~victim:2 ~round:2 (Crash.During_data (Pid.set_of_ints [ 1; 3 ])));
  Alcotest.check point "full subset is After_data 0" (Crash.After_data 0)
    (c ~victim:2 ~round:2 (Crash.During_data (Pid.set_of_ints [ 3; 4 ])));
  Alcotest.check point "prefix clamped to the planned syncs" Crash.After_send
    (c ~victim:2 ~round:2 (Crash.After_data 5));
  Alcotest.check point "proper prefix survives" (Crash.After_data 1)
    (c ~victim:2 ~round:2 (Crash.After_data 1));
  (* Victim 2 outside its own round sends nothing: every point collapses. *)
  Alcotest.check point "non-sending round collapses to Before_send"
    Crash.Before_send
    (c ~victim:2 ~round:1 Crash.After_send);
  Alcotest.check point "empty delivery is Before_send" Crash.Before_send
    (c ~victim:2 ~round:2 (Crash.During_data (Pid.set_of_ints [ 1 ])))

let test_noop_crashes_dropped () =
  (* Victim 1 decides and halts in round 1; a round-3 crash never fires. *)
  let sched =
    Schedule.of_list
      [ (Pid.of_int 1, Crash.make ~round:3 Crash.Before_send) ]
  in
  Alcotest.(check bool) "binding dropped" true
    (Adversary.Canonical.equal Schedule.empty
       (Adversary.Canonical.canonical rotating4 sched))

(* Satellite (b): every enumerated schedule canonicalizes to a schedule the
   reduced enumeration emits — exhaustively, for both profiles. *)
let membership profile full reduced =
  let reps = Hashtbl.create 512 in
  Seq.iter (fun s -> Hashtbl.replace reps (Schedule.to_string s) ()) reduced;
  Seq.iter
    (fun s ->
      let c = Adversary.Canonical.canonical profile s in
      if not (Hashtbl.mem reps (Schedule.to_string c)) then
        Alcotest.fail
          (Printf.sprintf "canonical of %s is %s, not a representative"
             (Schedule.to_string s) (Schedule.to_string c)))
    full

let test_representative_membership_rotating () =
  membership rotating4 (full_ext4 ())
    (Adversary.Canonical.schedules rotating4 ~n:4 ~max_f:2 ~max_round:3)

let test_representative_membership_broadcast () =
  let profile = Adversary.Canonical.broadcast ~n:4 ~t:2 in
  membership profile
    (Adversary.Enumerate.schedules ~model:Model_kind.Classic ~n:4 ~max_f:2
       ~max_round:3)
    (Adversary.Canonical.schedules profile ~n:4 ~max_f:2 ~max_round:3)

(* Idempotence, and the representatives being their own canonical forms. *)
let prop_canonical_idempotent =
  let pool = Array.of_seq (full_ext4 ()) in
  Helpers.qtest ~count:300 "canonical is idempotent"
    QCheck2.Gen.(int_range 0 (Array.length pool - 1))
    (fun i ->
      let s = pool.(i) in
      let c = Adversary.Canonical.canonical rotating4 s in
      Adversary.Canonical.equal c
        (Adversary.Canonical.canonical rotating4 c))

(* Layer-1 equivalence is result-level: a schedule and its canonical form
   produce the same engine outcome, for the correct algorithm and for the
   broken variant alike (movable is empty for the rotating profile, so
   canonical = normalize and no value relabeling is involved). *)
let engine_equivalence (runner : Model.Schedule.t -> Run_result.t) =
  Seq.iter
    (fun s ->
      let c = Adversary.Canonical.canonical rotating4 s in
      if fingerprint (runner s) <> fingerprint (runner c) then
        Alcotest.fail
          (Printf.sprintf "%s and its canonical %s diverge"
             (Schedule.to_string s) (Schedule.to_string c)))
    (full_ext4 ())

let test_engine_equivalence_rwwc () =
  engine_equivalence
    (Rwwc_run.runner (Engine.config ~n:4 ~t:2 ~proposals:proposals4 ()))

let test_engine_equivalence_broken () =
  engine_equivalence
    (Broken_run.runner (Engine.config ~n:4 ~t:2 ~proposals:proposals4 ()))

(* Layer-2 (pid renaming) soundness is verdict-level: flood-set's verdict
   is invariant under canonicalization even when the canonical form renames
   pids (and hence permutes decision values). *)
let test_verdict_invariance_broadcast () =
  let profile = Adversary.Canonical.broadcast ~n:4 ~t:2 in
  let run = Flood_run.runner (Engine.config ~n:4 ~t:2 ~proposals:proposals4 ()) in
  let verdict s =
    Spec.Properties.all_ok
      (Spec.Properties.uniform_consensus ~bound:3 (run s))
  in
  Seq.iter
    (fun s ->
      let c = Adversary.Canonical.canonical profile s in
      if verdict s <> verdict c then
        Alcotest.fail
          (Printf.sprintf "verdict of %s differs from its canonical %s"
             (Schedule.to_string s) (Schedule.to_string c)))
    (Adversary.Enumerate.schedules ~model:Model_kind.Classic ~n:4 ~max_f:2
       ~max_round:3)

let broken_violates run s =
  let res = run s in
  let f = Pid.Set.cardinal (Run_result.crashed res) in
  not
    (Spec.Properties.all_ok
       (Spec.Properties.uniform_consensus ~bound:(f + 1) res))

(* For every registry algorithm, the reduced sweep over its own profile
   finds exactly the violating classes of the full sweep — a nonempty set
   for each broken ablation, so the quotient is shown to preserve
   violations, and an empty one for each correct algorithm. *)
let test_reduced_vs_full_verdicts () =
  let n = 4 and t = 2 and max_f = 2 and max_round = 3 in
  List.iter
    (fun algo ->
      let name = algo.Minimize.Algo.name in
      let violating ~symmetry =
        (Minimize.Algo.sweep algo ~n ~t
           (Minimize.Algo.space algo ~symmetry ~n ~t ~max_f ~max_round))
          .Minimize.Algo.violations
        |> List.map fst
      in
      let profile = Minimize.Algo.profile algo ~n ~t in
      let full_classes =
        violating ~symmetry:false
        |> List.map (fun s ->
               Schedule.to_string (Adversary.Canonical.canonical profile s))
        |> List.sort_uniq String.compare
      in
      let reduced_classes =
        violating ~symmetry:true |> List.map Schedule.to_string
        |> List.sort String.compare
      in
      Alcotest.(check bool)
        (name ^ ": violations found iff broken")
        algo.Minimize.Algo.broken (full_classes <> []);
      Alcotest.(check (list string))
        (name ^ ": identical violating classes")
        full_classes reduced_classes)
    Minimize.Algo.all

(* Satellite (a): the sharded parallel sweep reports exactly the sequential
   violation set, whatever the domain count. *)
let test_sharded_sweep_deterministic () =
  let sweep ~domains =
    Parallel.Pool.shards ~domains (fun ~shards ~shard ->
        let run =
          Broken_run.runner (Engine.config ~n:4 ~t:2 ~proposals:proposals4 ())
        in
        Seq.fold_left
          (fun acc s ->
            if broken_violates run s then Schedule.to_string s :: acc else acc)
          []
          (Adversary.Enumerate.shard ~shards ~shard (full_ext4 ())))
    |> List.concat
    |> List.sort String.compare
  in
  let sequential = sweep ~domains:1 in
  Alcotest.(check bool) "some violations found" true (sequential <> []);
  List.iter
    (fun domains ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d" domains)
        sequential (sweep ~domains))
    [ 2; 4 ]

let () =
  Alcotest.run "canonical"
    [
      ( "layer1",
        [
          Alcotest.test_case "point-classes" `Quick test_canonical_point_classes;
          Alcotest.test_case "noop-drop" `Quick test_noop_crashes_dropped;
          prop_canonical_idempotent;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "membership-rotating" `Quick
            test_representative_membership_rotating;
          Alcotest.test_case "membership-broadcast" `Quick
            test_representative_membership_broadcast;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "engine-equivalence-rwwc" `Quick
            test_engine_equivalence_rwwc;
          Alcotest.test_case "engine-equivalence-broken" `Quick
            test_engine_equivalence_broken;
          Alcotest.test_case "verdict-invariance-broadcast" `Quick
            test_verdict_invariance_broadcast;
          Alcotest.test_case "reduced-vs-full" `Quick
            test_reduced_vs_full_verdicts;
          Alcotest.test_case "sharded-sweep-deterministic" `Quick
            test_sharded_sweep_deterministic;
        ] );
    ]

(* The flat-engine differential suite (DESIGN.md §13).

   Pins the flat-memory engine core ([Engine.Make_flat] and the list-API
   adapter path [Engine.Make]) byte-identical — in the
   {!Run_result.equal_observable} sense: statuses, rounds, all four wire
   counters, post-decision crashes — to the reference semantics
   ([Reference], a fold of the pure round step), across the whole minimizer
   algorithm registry plus the [`Announce] baseline and the full exhaustive
   n=4 schedule space.  Also pins:

   - the bitset FloodSet against a local reimplementation of the historical
     [Set.Make (Int)] version;
   - view/list API agreement: an algorithm observing its rounds through the
     zero-copy view records exactly what its list-API twin records
     (qcheck, random extended-model schedules);
   - the zero-allocation guarantee: a warm flat-runner round performs zero
     minor-heap allocation (Gc counters; satellite of the n=1024 target);
   - that the reference refuses what the engine refuses, and that stepping
     a configuration leaves it unchanged. *)

open Model
open Sync_sim

(* --- Cross-engine byte-identity over the exhaustive n=4 space ------------- *)

module type FLAT_ALGO = Algorithm_intf.FLAT

type entry = { name : string; modl : Model_kind.t; algo : (module FLAT_ALGO) }

(* Mirrors the [Minimize.Algo] registry: the natively-flat algorithms as
   themselves, the list-API ablations through the adapter — exactly the
   modules production call sites run — plus nonuniform-early, the one
   [`Announce] algorithm: decided processes that keep running and crashes
   after a decision. *)
let registry : entry list =
  [
    {
      name = "rwwc";
      modl = Model_kind.Extended;
      algo = (module Core.Rwwc : FLAT_ALGO);
    };
    {
      name = "data-decide";
      modl = Model_kind.Extended;
      algo =
        (module Algorithm_intf.Of_list (Core.Rwwc_variants.Data_decide)
        : FLAT_ALGO);
    };
    {
      name = "ascending-commit";
      modl = Model_kind.Extended;
      algo =
        (module Algorithm_intf.Of_list (Core.Rwwc_variants.Ascending_commit)
        : FLAT_ALGO);
    };
    {
      name = "piggyback-commit";
      modl = Model_kind.Extended;
      algo =
        (module Algorithm_intf.Of_list (Core.Rwwc_variants.Piggyback_commit)
        : FLAT_ALGO);
    };
    {
      name = "flood";
      modl = Model_kind.Classic;
      algo = (module Baselines.Flood_set : FLAT_ALGO);
    };
    {
      name = "early-stopping";
      modl = Model_kind.Classic;
      algo =
        (module Algorithm_intf.Of_list (Baselines.Early_stopping) : FLAT_ALGO);
    };
    {
      name = "nonuniform-early";
      modl = Model_kind.Classic;
      algo =
        (module Algorithm_intf.Of_list (Baselines.Nonuniform_early)
        : FLAT_ALGO);
    };
  ]

let check_identical ~who ~schedule flat reference =
  if not (Run_result.equal_observable flat reference) then
    Alcotest.failf "%s diverges from the reference on %s:@.flat %a@.ref %a"
      who
      (Schedule.to_string schedule)
      Run_result.pp flat Run_result.pp reference

(* Full sweep at n=4: every schedule with at most 2 victims crashing in
   rounds 1..3 (10,753 schedules in the extended model, 3,355 classic).
   The reused-scratch runner is compared on every schedule; the fresh-scratch
   [run] entry point on a deterministic subsample (it shares [exec] with the
   runner, the subsample only guards scratch initialization). *)
let sweep_identical (e : entry) () =
  let module A = (val e.algo) in
  let module F = Engine.Make_flat (A) in
  let module R = Reference.Make (A) in
  let n = 4 and t = 2 in
  let cfg =
    Engine.config ~n ~t ~proposals:(Engine.distinct_proposals n) ()
  in
  let flat_runner = F.runner cfg and ref_runner = R.runner cfg in
  let checked = ref 0 in
  Seq.iter
    (fun schedule ->
      let reference = ref_runner schedule in
      check_identical ~who:(e.name ^ "/runner") ~schedule
        (flat_runner schedule) reference;
      if !checked mod 97 = 0 then
        check_identical ~who:(e.name ^ "/run") ~schedule
          (F.run { cfg with schedule })
          reference;
      incr checked)
    (Adversary.Enumerate.schedules ~model:e.modl ~n ~max_f:t ~max_round:3);
  Alcotest.(check bool)
    (Printf.sprintf "%s: swept a non-trivial space (%d schedules)" e.name
       !checked)
    true (!checked > 1000)

(* --- FloodSet: bitset vs the historical Set.Make (Int) implementation ----- *)

(* The pre-bitset FloodSet, verbatim: the value-set as an AVL int set, the
   payload as a sorted list.  Kept here as the differential twin. *)
module Flood_legacy = struct
  module Int_set = Set.Make (Int)

  type msg = Values of int list
  type state = { me : int; n : int; t : int; values : Int_set.t }

  let name = "flood-set-legacy"
  let model = Model_kind.Classic
  let decision_mode = `Halt
  let msg_bits ~value_bits (Values vs) = value_bits * List.length vs

  let pp_msg ppf (Values vs) =
    Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int vs))

  let init ~n ~t ~me ~proposal =
    { me = Pid.to_int me; n; t; values = Int_set.singleton proposal }

  let data_sends state ~round:_ =
    let payload = Values (Int_set.elements state.values) in
    List.filter_map
      (fun dest ->
        if Pid.to_int dest = state.me then None else Some (dest, payload))
      (Pid.all ~n:state.n)

  let sync_sends _state ~round:_ = []

  let compute state ~round ~data ~syncs =
    assert (syncs = []);
    let values =
      List.fold_left
        (fun acc (_, Values vs) -> List.fold_left (Fun.flip Int_set.add) acc vs)
        state.values data
    in
    let state = { state with values } in
    if round >= state.t + 1 then (state, Some (Int_set.min_elt values))
    else (state, None)
end

let flood_bitset_identical () =
  let module F = Engine.Make_flat (Baselines.Flood_set) in
  let module L = Engine.Make (Flood_legacy) in
  let n = 4 and t = 2 in
  let cfg =
    Engine.config ~n ~t ~proposals:(Engine.distinct_proposals n) ()
  in
  let flood = F.runner cfg and legacy = L.runner cfg in
  Seq.iter
    (fun schedule ->
      let a = flood schedule and b = legacy schedule in
      if not (Run_result.equal_observable a b) then
        Alcotest.failf
          "bitset flood diverges from Set-based flood on %s:@.bitset %a@.set \
           %a"
          (Schedule.to_string schedule)
          Run_result.pp a Run_result.pp b)
    (Adversary.Enumerate.schedules ~model:Model_kind.Classic ~n ~max_f:t
       ~max_round:3)

(* --- View API vs list API: identical observations (qcheck) ---------------- *)

(* Two observationally-equivalent recorders: both broadcast a
   round-and-sender-tagged payload plus a control message to every other
   process and decide in round 3; each logs everything it receives.  One
   observes through the legacy list API, the other through the zero-copy
   view — reading it every way the view offers (indexed, iterator, list
   materialization, membership probes) and cross-checking the readings
   against each other before logging.  The engine-level property is that
   the two logs are equal, line for line. *)
type observation = {
  o_round : int;
  o_me : int;
  o_data : (int * int) list;  (* (sender, payload), increasing sender *)
  o_syncs : int list;  (* sync senders, increasing *)
}

module Recorder_base = struct
  type msg = int
  type state = { me : int; n : int }

  let model = Model_kind.Extended
  let decision_mode = `Halt
  let msg_bits ~value_bits:_ _ = 8
  let pp_msg = Format.pp_print_int
  let init ~n ~t:_ ~me ~proposal:_ = { me = Pid.to_int me; n }
  let payload state ~round = (100 * state.me) + round

  let data_sends state ~round =
    List.filter_map
      (fun dest ->
        if Pid.to_int dest = state.me then None
        else Some (dest, payload state ~round))
      (Pid.all ~n:state.n)

  let sync_sends state ~round:_ =
    List.filter (fun d -> Pid.to_int d <> state.me) (Pid.all ~n:state.n)
end

let recorder_log : observation list ref = ref []

module Recorder_list = struct
  include Recorder_base

  let name = "recorder-list"

  let compute state ~round ~data ~syncs =
    recorder_log :=
      {
        o_round = round;
        o_me = state.me;
        o_data = List.map (fun (p, m) -> (Pid.to_int p, m)) data;
        o_syncs = List.map Pid.to_int syncs;
      }
      :: !recorder_log;
    (state, if round >= 3 then Some state.me else None)
end

module Recorder_flat = struct
  include Recorder_base

  let name = "recorder-flat"
  let quiescence = Algorithm_intf.Chatty

  (* The engine never calls these on a FLAT module, but the signature keeps
     them so the same module also runs through the list path if wanted. *)
  let compute state ~round ~data:_ ~syncs:_ =
    (state, if round >= 3 then Some state.me else None)

  let send state ~round e =
    for d = 1 to state.n do
      if d <> state.me then
        Emitter.data e (Pid.of_int d) (payload state ~round)
    done;
    for d = 1 to state.n do
      if d <> state.me then Emitter.sync e (Pid.of_int d)
    done

  let receive state ~round view =
    let count = Round_view.data_count view in
    (* Indexed reads... *)
    let indexed =
      List.init count (fun k ->
          ( Pid.to_int (Round_view.data_sender view k),
            Round_view.data_payload view k ))
    in
    (* ...must agree with the iterator... *)
    let via_iter =
      List.rev
        (Round_view.fold_data
           (fun acc p m -> (Pid.to_int p, m) :: acc)
           [] view)
    in
    Alcotest.(check (list (pair int int))) "iter_data = indexed" indexed via_iter;
    (* ...and with the materialized legacy list. *)
    let via_list =
      List.map (fun (p, m) -> (Pid.to_int p, m)) (Round_view.data_list view)
    in
    Alcotest.(check (list (pair int int))) "data_list = indexed" indexed via_list;
    let syncs = List.map Pid.to_int (Round_view.sync_list view) in
    let via_fold =
      List.rev (Round_view.fold_syncs (fun acc p -> Pid.to_int p :: acc) [] view)
    in
    Alcotest.(check (list int)) "fold_syncs = sync_list" syncs via_fold;
    Alcotest.(check int) "sync_count" (List.length syncs)
      (Round_view.sync_count view);
    for p = 1 to state.n do
      Alcotest.(check bool)
        (Printf.sprintf "has_sync p%d" p)
        (List.mem p syncs)
        (Round_view.has_sync view (Pid.of_int p))
    done;
    recorder_log :=
      { o_round = round; o_me = state.me; o_data = indexed; o_syncs = syncs }
      :: !recorder_log;
    if round >= 3 then Round_view.decide view state.me;
    state
end

let view_matches_list_api =
  Helpers.qtest ~count:200 "flat view records what the list API records"
    (Helpers.scenario_gen ~min_n:3 ~max_n:6 ~model:Model_kind.Extended ())
    (fun s ->
      let module L = Engine.Make (Recorder_list) in
      let module F = Engine.Make_flat (Recorder_flat) in
      let cfg =
        Engine.config ~schedule:s.Helpers.schedule ~n:s.Helpers.n
          ~t:s.Helpers.t ~proposals:s.Helpers.proposals ()
      in
      recorder_log := [];
      let res_list = L.run cfg in
      let log_list = !recorder_log in
      recorder_log := [];
      let res_flat = F.run cfg in
      let log_flat = !recorder_log in
      recorder_log := [];
      log_list = log_flat && Run_result.equal_observable res_list res_flat)

(* --- Zero allocation per warm round --------------------------------------- *)

(* A FLAT algorithm whose send/receive are allocation-free: fixed fan-out of
   one data and one control message per round, state mutated in place, and
   it never decides — so a run always executes exactly [max_rounds] rounds.
   Two warm runners differing only in [max_rounds] then have identical
   per-run fixed costs (validation, result record, statuses array), and the
   minor-heap words attributable to the extra rounds must be exactly zero. *)
module Spin = struct
  type msg = int
  type state = { me : int; n : int; mutable sum : int }

  let name = "spin"
  let quiescence = Algorithm_intf.Chatty
  let model = Model_kind.Extended
  let decision_mode = `Halt
  let msg_bits ~value_bits:_ _ = 8
  let pp_msg = Format.pp_print_int
  let init ~n ~t:_ ~me ~proposal = { me = Pid.to_int me; n; sum = proposal }
  let next state = (state.me mod state.n) + 1

  let data_sends state ~round:_ = [ (Pid.of_int (next state), state.sum) ]
  let sync_sends state ~round:_ = [ Pid.of_int (next state) ]
  let compute state ~round:_ ~data:_ ~syncs:_ = (state, None)

  let send state ~round:_ e =
    Emitter.data e (Pid.of_int (next state)) state.sum;
    Emitter.sync e (Pid.of_int (next state))

  let receive state ~round:_ view =
    for k = 0 to Round_view.data_count view - 1 do
      state.sum <- state.sum + Round_view.data_payload view k
    done;
    if Round_view.has_sync view (Pid.of_int (next state)) then
      state.sum <- state.sum + 1;
    state
end

let warm_rounds_allocate_zero () =
  let module R = Engine.Make_flat (Spin) in
  let n = 16 in
  let proposals = Engine.distinct_proposals n in
  let short_rounds = 10 and long_rounds = 60 and reps = 50 in
  let runner_of rounds =
    R.runner (Engine.config ~n ~t:(n - 1) ~max_rounds:rounds ~proposals ())
  in
  let measure runner =
    ignore (runner Schedule.empty : Run_result.t) (* warm: arena grown *);
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (runner Schedule.empty : Run_result.t)
    done;
    Gc.minor_words () -. before
  in
  let short_runner = runner_of short_rounds
  and long_runner = runner_of long_rounds in
  let short_words = measure short_runner in
  let long_words = measure long_runner in
  (* 50 extra rounds x 50 runs: a single word allocated per round would show
     up as 2500 words.  Demand exactly zero. *)
  Alcotest.(check (float 0.0))
    (Printf.sprintf
       "%d extra rounds allocate nothing (short=%.0f long=%.0f words)"
       (long_rounds - short_rounds) short_words long_words)
    short_words long_words

(* --- The reference refuses what the engine refuses ----------------------- *)

(* A classic-model algorithm that nevertheless plans control messages. *)
module Classic_chatter = struct
  include Recorder_base

  let name = "classic-chatter"
  let model = Model_kind.Classic
  let compute state ~round ~data:_ ~syncs:_ =
    (state, if round >= 3 then Some state.me else None)
end

let refusals =
  [
    ( "classic algorithm emitting control messages",
      (module Algorithm_intf.Of_list (Classic_chatter) : FLAT_ALGO),
      Schedule.empty );
    ( "after-data point under the classic model",
      (module Baselines.Flood_set : FLAT_ALGO),
      Schedule.of_list
        [ (Pid.of_int 1, Crash.make ~round:1 (Crash.After_data 0)) ] );
  ]

let both_refuse (what, (module A : FLAT_ALGO), schedule) =
  Alcotest.test_case what `Quick (fun () ->
      let proposals = Engine.distinct_proposals 3 in
      let cfg = Engine.config ~schedule ~n:3 ~t:1 ~proposals () in
      List.iter
        (fun (lane, run) ->
          match run cfg with
          | exception Engine.Model_violation _ -> ()
          | (_ : Run_result.t) ->
            Alcotest.failf "%s ran where it must raise Model_violation" lane)
        [
          ("flat engine", (let module F = Engine.Make_flat (A) in F.run));
          ("reference", (let module R = Reference.Make (A) in R.run));
        ])

let step_guards () =
  let module R = Reference.Make (Core.Rwwc) in
  let c = R.initial (Engine.config ~n:4 ~t:2 ~proposals:[| 1; 2; 3; 4 |] ()) in
  let rejects what crashes =
    Alcotest.(check bool) what true
      (match R.step c ~crashes with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let p = Pid.of_int in
  rejects "victim listed twice"
    [ (p 1, Crash.Before_send); (p 1, Crash.After_send) ];
  rejects "budget overspent"
    (List.map (fun i -> (p i, Crash.Before_send)) [ 1; 2; 3 ])

(* FloodSet's flat [receive] merges in place; its list half must not, or
   the step would corrupt the configuration it started from. *)
let flood_step_leaves_parent () =
  let module R = Reference.Make (Baselines.Flood_set) in
  let known c =
    Array.to_list
      (Array.map (fun p -> Baselines.Flood_set.known p.R.state) c.R.procs)
  in
  let c = R.initial (Engine.config ~n:3 ~t:1 ~proposals:[| 5; 2; 9 |] ()) in
  let first = R.step c ~crashes:[] in
  let second = R.step c ~crashes:[] in
  Alcotest.(check (list (list int))) "parent unchanged" [ [ 5 ]; [ 2 ]; [ 9 ] ]
    (known c);
  Alcotest.(check (list (list int))) "both steps equal" (known first)
    (known second);
  Alcotest.(check (list (list int))) "one round merges everything"
    [ [ 2; 5; 9 ]; [ 2; 5; 9 ]; [ 2; 5; 9 ] ]
    (known first)

let () =
  Alcotest.run "flat-engine"
    [
      ( "byte-identity",
        List.map
          (fun e ->
            Alcotest.test_case
              (Printf.sprintf "%s: flat = reference over exhaustive n=4" e.name)
              `Slow (sweep_identical e))
          registry );
      ( "flood-bitset",
        [
          Alcotest.test_case "bitset flood = Set flood over exhaustive n=4"
            `Slow flood_bitset_identical;
        ] );
      ("view-api", [ view_matches_list_api ]);
      ( "allocation",
        [ Alcotest.test_case "warm rounds allocate zero" `Quick warm_rounds_allocate_zero ]
      );
      ("refusals", List.map both_refuse refusals);
      ( "ref-step",
        [
          Alcotest.test_case "guards" `Quick step_guards;
          Alcotest.test_case "flood step leaves its parent" `Quick
            flood_step_leaves_parent;
        ] );
    ]

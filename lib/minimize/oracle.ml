open Model

(* --- Cross-engine differential check on crash schedules ------------------- *)

type lane = {
  name : string;
  decisions : (int * int * int) list;
  crashed : int list;
  note : string;
}

type verdict =
  | Agree of lane list
  | Disagree of { lanes : lane list; diffs : string list }

let lanes = function Agree lanes | Disagree { lanes; _ } -> lanes

(* The timed lane runs the Section 2.2 LAN realization with the EXP-LAN
   parameters: D = 100, delta = 2, latencies uniform in (0, D], fixed
   seed.  Latency draws cannot change the verdict — the realization proves
   exactly that — so one seed suffices. *)
let big_d = 100.0
let delta = 2.0

module Lan_rwwc =
  Lan.Realization.Make
    (Core.Rwwc)
    (struct
      let big_d = big_d
      let delta = delta
    end)

module Lan_runner = Timed_sim.Timed_engine.Make (Lan_rwwc)
module R = Sync_sim.Engine.Make_flat (Core.Rwwc)

(* The reference semantics, an independent lane: the flat engine must stay
   byte-identical to it on every schedule the oracle sees. *)
module R_ref = Sync_sim.Reference.Make (Core.Rwwc)

let lane_of_result name res =
  {
    name;
    decisions =
      List.map
        (fun (pid, v, r) -> (Pid.to_int pid, v, r))
        (Sync_sim.Run_result.decisions res);
    crashed =
      List.map Pid.to_int
        (Pid.Set.elements (Sync_sim.Run_result.crashed res));
    note = "";
  }

let pp_triples ts =
  String.concat ","
    (List.map (fun (p, v, r) -> Printf.sprintf "p%d=%d@r%d" p v r) ts)

let pp_pids ps = String.concat "," (List.map (Printf.sprintf "p%d") ps)

let compare_lanes reference lane =
  let diffs = ref [] in
  if lane.decisions <> reference.decisions then
    diffs :=
      Printf.sprintf "%s decisions [%s] differ from %s [%s]" lane.name
        (pp_triples lane.decisions) reference.name
        (pp_triples reference.decisions)
      :: !diffs;
  if lane.crashed <> reference.crashed then
    diffs :=
      Printf.sprintf "%s crash-set {%s} differs from %s {%s}" lane.name
        (pp_pids lane.crashed) reference.name (pp_pids reference.crashed)
      :: !diffs;
  List.rev !diffs

let check_schedule ~n ~t schedule =
  let proposals = Sync_sim.Engine.distinct_proposals n in
  let cfg = Sync_sim.Engine.config ~schedule ~n ~t ~proposals () in
  let res_run = R.run cfg in
  let reference = lane_of_result "engine-run" res_run in
  (* A lane that must match [engine-run] on everything observable. *)
  let twin name res =
    let lane = lane_of_result name res in
    ( lane,
      if Sync_sim.Run_result.equal_observable res_run res then []
      else
        compare_lanes reference lane
        @ [
            name
            ^ " observable result differs from engine-run (statuses, rounds \
               or wire counters)";
          ] )
  in
  let runner_lane, runner_diffs = twin "engine-runner" (R.runner cfg schedule)
  in
  let ref_lane, ref_diffs = twin "engine-reference" (R_ref.run cfg) in
  let timed_lane, timed_diffs =
    match
      Lan.Realization.translate_rwwc_schedule ~n ~big_d ~delta schedule
    with
    | exception Invalid_argument why ->
      ( {
          name = "timed-lan";
          decisions = [];
          crashed = [];
          note = "skipped: " ^ why;
        },
        [] )
    | crashes ->
      let timed =
        Lan_runner.run
          (Timed_sim.Timed_engine.config
             ~latency:(Timed_sim.Timed_engine.Uniform { lo = 1.0; hi = big_d })
             ~crashes ~seed:5L ~n ~t ~proposals ())
      in
      let lane =
        {
          name = "timed-lan";
          decisions =
            List.map
              (fun (pid, v, at) ->
                (Pid.to_int pid, v, Lan_rwwc.round_of_time at))
              (Timed_sim.Timed_engine.decisions timed);
          crashed =
            List.map Pid.to_int (Timed_sim.Timed_engine.crashed timed);
          note = "";
        }
      in
      (lane, compare_lanes reference lane)
  in
  let all_lanes = [ reference; runner_lane; ref_lane; timed_lane ] in
  match runner_diffs @ ref_diffs @ timed_diffs with
  | [] -> Agree all_lanes
  | diffs -> Disagree { lanes = all_lanes; diffs }

let agrees ~n ~t schedule =
  match check_schedule ~n ~t schedule with
  | Agree _ -> true
  | Disagree _ -> false

(* --- Masked-transport differential check under network faults ------------ *)

type masked_verdict =
  | Masked
  | Detected of Net.Synchrony_violation.t
  | Wrong of string

let masked_big_d = 10.0
let masked_delta = 1.0

(* Latencies and reorder jitter stay jointly under D, so jitter alone never
   breaks the synchrony assumption — only drops, cuts and spikes do. *)
let masked_latency =
  Timed_sim.Timed_engine.Uniform { lo = 0.5; hi = masked_big_d /. 2.0 }

let abstract_decisions ~n ~proposals =
  let res = R.run (Sync_sim.Engine.config ~n ~t:(n - 2) ~proposals ()) in
  List.map
    (fun (pid, v, r) -> (Pid.to_int pid, v, r))
    (Sync_sim.Run_result.decisions res)

let check_masked ?(n = 6) ~budget ~faults ~seed () =
  let module M =
    Lan.Masked.Make
      (Core.Rwwc)
      (struct
        let big_d = masked_big_d
        let delta = masked_delta
        let retry_budget = budget
      end)
  in
  let module T = Timed_sim.Timed_engine.Make (M) in
  let proposals = Sync_sim.Engine.distinct_proposals n in
  let abstract = abstract_decisions ~n ~proposals in
  (* Online uniform-consensus guard, bridged from the timed event stream:
     every decision is checked for validity/agreement the moment it lands. *)
  let guard =
    Obs.Online_invariants.create ~check_termination:false ~n ~t:(n - 2)
      ~proposals ()
  in
  let ginst = Obs.Online_invariants.instrument guard in
  let bridge =
    Obs.Instrument.of_fn (function
      | Timed_sim.Timed_engine.Chose { at; pid; value } ->
        Obs.Instrument.emit ginst
          (Obs.Event.Decided { round = M.round_of_time at; pid; value })
      | _ -> ())
  in
  let res =
    T.run
      (Timed_sim.Timed_engine.config ~latency:masked_latency ~faults ~seed
         ~instrument:bridge ~n ~t:(n - 2) ~proposals ())
  in
  let decided =
    List.map
      (fun (pid, v, at) -> (Pid.to_int pid, v, M.round_of_time at))
      (Timed_sim.Timed_engine.decisions res)
  in
  let verdict =
    match res.Timed_sim.Timed_engine.violations with
    | v :: _ ->
      (* Aborted: acceptable only if nothing decided wrongly before the
         abort landed. *)
      if List.for_all (fun d -> List.mem d abstract) decided then Detected v
      else Wrong "decision diverged before the violation was detected"
    | [] ->
      if decided = abstract then Masked
      else Wrong "completed run diverged from the abstract engine"
  in
  (verdict, Net.Fault_plan.faults_injected faults)

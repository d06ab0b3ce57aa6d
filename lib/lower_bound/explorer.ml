open Model

type witness = {
  schedule : Schedule.t;
  result : Sync_sim.Run_result.t;
  configs_searched : int;
}

module Make (A : Algo_intf.S) = struct
  module Runner = Sync_sim.Engine.Make_flat (A)

  let tightness ~n ~f ~proposals =
    if f < 0 || f > n - 2 then invalid_arg "Explorer.tightness: need 0 <= f <= n-2";
    let t = max f 1 in
    let schedule =
      Adversary.Strategies.coordinator_killer ~n ~f
        ~style:Adversary.Strategies.Silent
    in
    let result =
      Runner.run (Sync_sim.Engine.config ~schedule ~n ~t ~proposals ())
    in
    Spec.Properties.assert_ok
      ~context:(Printf.sprintf "tightness n=%d f=%d" n f)
      (Spec.Properties.uniform_consensus ~bound:(f + 1) result);
    Option.value (Sync_sim.Run_result.max_decision_round result) ~default:0

  let truncation_violation ~n ~decide_by ~proposals =
    if decide_by < 1 || decide_by > n - 2 then
      invalid_arg "Explorer.truncation_violation: need 1 <= decide_by <= n-2";
    let module T =
      Truncated.Make
        (A)
        (struct
          let decide_by = decide_by
        end)
    in
    let module S = Stepper.Make (T) in
    let module E = Sync_sim.Engine.Make_flat (T) in
    let t = decide_by in
    (* Decisions are final: the first configuration holding two decided
       values (or a foreign one) dooms every extension. *)
    let violates config =
      match S.decided_values config with
      | _ :: _ :: _ -> true
      | vs -> not (List.for_all (fun v -> Array.mem v proposals) vs)
    in
    let cfg = Sync_sim.Engine.config ~n ~t ~proposals () in
    let nodes = S.search ~per_round:t ~stop:violates (S.initial cfg) in
    let last = nodes.(Array.length nodes - 1) in
    if not (violates last.S.config) then None
    else
      let schedule = S.schedule last in
      let result = E.run { cfg with schedule } in
      let open Spec.Properties in
      if all_ok [ uniform_agreement result; validity result ] then
        failwith
          (Printf.sprintf "Explorer: witness %s does not violate on the engine"
             (Schedule.to_string schedule));
      Some { schedule; result; configs_searched = Array.length nodes }

  let zero_round_impossible ~proposals =
    (* A 0-round algorithm exchanges nothing, so each process can only output
       its own proposal. *)
    let distinct =
      Array.to_list proposals |> List.sort_uniq Int.compare |> List.length
    in
    distinct > 1
end

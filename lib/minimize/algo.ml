open Model
open Sync_sim

type t = {
  name : string;
  model : Model_kind.t;
  broken : bool;
  runner : n:int -> t:int -> Schedule.t -> Run_result.t;
  bound : t:int -> Run_result.t -> int;
}

let f_actual res = Pid.Set.cardinal (Run_result.all_crashes res)

(* List-API algorithms come in through [Algorithm_intf.Of_list], exactly
   what [Engine.Make] does; natively flat ones skip the adapter. *)
let make (module A : Algorithm_intf.FLAT) ~name ~broken ~bound =
  let module R = Engine.Make_flat (A) in
  {
    name;
    model = A.model;
    broken;
    runner =
      (fun ~n ~t ->
        R.runner
          (Engine.config ~n ~t ~proposals:(Engine.distinct_proposals n) ()));
    bound;
  }

let rwwc_bound ~t:_ res = f_actual res + 1

let all =
  let open Algorithm_intf in
  [
    make (module Core.Rwwc) ~name:"rwwc" ~broken:false ~bound:rwwc_bound;
    make
      (module Of_list (Core.Rwwc_variants.Data_decide))
      ~name:"data-decide" ~broken:true ~bound:rwwc_bound;
    make
      (module Of_list (Core.Rwwc_variants.Ascending_commit))
      ~name:"ascending-commit" ~broken:true ~bound:rwwc_bound;
    make
      (module Of_list (Core.Rwwc_variants.Piggyback_commit))
      ~name:"piggyback-commit" ~broken:true ~bound:rwwc_bound;
    make (module Baselines.Flood_set) ~name:"flood" ~broken:false
      ~bound:(fun ~t _ -> t + 1);
    make
      (module Of_list (Baselines.Early_stopping))
      ~name:"early-stopping" ~broken:false
      ~bound:(fun ~t res -> min (t + 1) (f_actual res + 2));
  ]

let names = List.map (fun a -> a.name) all

let find name =
  match List.find_opt (fun a -> a.name = name) all with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown algorithm %S (expected one of: %s)" name
         (String.concat ", " names))

let get name = match find name with Ok a -> a | Error why -> invalid_arg why

let checks algo ~t res =
  Spec.Properties.uniform_consensus ~bound:(algo.bound ~t res) res

let verdict algo ~n ~t =
  let run = algo.runner ~n ~t in
  fun schedule -> Spec.Properties.failures (checks algo ~t (run schedule))

let violation algo ~n ~t schedule =
  match verdict algo ~n ~t schedule with [] -> None | c :: _ -> Some c

let profile algo ~n ~t =
  match algo.model with
  | Model_kind.Extended -> Adversary.Canonical.rotating_coordinator ~n
  | Model_kind.Classic -> Adversary.Canonical.broadcast ~n ~t

let space algo ~symmetry ~n ~t ~max_f ~max_round =
  if symmetry then
    Adversary.Canonical.schedules (profile algo ~n ~t) ~n ~max_f ~max_round
  else Adversary.Enumerate.schedules ~model:algo.model ~n ~max_f ~max_round

type sweep = {
  checked : int;
  violations : (Schedule.t * Spec.Properties.check list) list;
}

let sweep algo ~n ~t schedules =
  let verdict = verdict algo ~n ~t in
  let checked, violations =
    Seq.fold_left
      (fun (checked, violations) schedule ->
        ( checked + 1,
          match verdict schedule with
          | [] -> violations
          | failures -> (schedule, failures) :: violations ))
      (0, []) schedules
  in
  { checked; violations = List.rev violations }

let first_violation algo ~n ~t ~max_f ~max_round =
  let verdict = verdict algo ~n ~t in
  let searched = ref 0 in
  let witness =
    Seq.find_map
      (fun schedule ->
        incr searched;
        match verdict schedule with
        | [] -> None
        | c :: _ -> Some (schedule, c))
      (space algo ~symmetry:false ~n ~t ~max_f ~max_round)
  in
  (witness, !searched)

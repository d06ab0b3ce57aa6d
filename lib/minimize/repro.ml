open Model
module J = Obs.Json

type case =
  | Consensus of { algo : string; schedule : Schedule.t; property : string }
  | Cross_engine of { schedule : Schedule.t }
  | Chaos of {
      budget : int;
      engine_seed : int64;
      actions : Net.Fault_plan.action array;
    }

type t = {
  n : int;
  t : int;
  case : case;
  steps : int;
  candidates : int;
  one_minimal : bool;
}

let version = 1

(* --- Encoding ------------------------------------------------------------- *)

let point_to_json = function
  | Crash.Before_send -> J.Obj [ ("kind", J.String "before_send") ]
  | Crash.During_data s ->
    J.Obj
      [
        ("kind", J.String "during_data");
        ( "delivered",
          J.List
            (List.map (fun p -> J.Int (Pid.to_int p)) (Pid.Set.elements s)) );
      ]
  | Crash.After_data k ->
    J.Obj [ ("kind", J.String "after_data"); ("prefix", J.Int k) ]
  | Crash.After_send -> J.Obj [ ("kind", J.String "after_send") ]

let schedule_to_json schedule =
  J.List
    (List.map
       (fun (pid, ev) ->
         J.Obj
           [
             ("pid", J.Int (Pid.to_int pid));
             ("round", J.Int ev.Crash.round);
             ("point", point_to_json ev.Crash.point);
           ])
       (Schedule.bindings schedule))

let action_to_json = function
  | Net.Fault_plan.Deliver -> J.String "deliver"
  | Net.Fault_plan.Lose -> J.String "lose"
  | Net.Fault_plan.Copies ls ->
    J.Obj [ ("copies", J.List (List.map (fun l -> J.Float l) ls)) ]

let case_to_json = function
  | Consensus { algo; schedule; property } ->
    J.Obj
      [
        ("kind", J.String "consensus");
        ("algo", J.String algo);
        ("schedule", schedule_to_json schedule);
        ("property", J.String property);
      ]
  | Cross_engine { schedule } ->
    J.Obj
      [
        ("kind", J.String "cross_engine");
        ("schedule", schedule_to_json schedule);
      ]
  | Chaos { budget; engine_seed; actions } ->
    J.Obj
      [
        ("kind", J.String "chaos");
        ("budget", J.Int budget);
        ("engine_seed", J.Int (Int64.to_int engine_seed));
        ("actions", J.List (List.map action_to_json (Array.to_list actions)));
      ]

let to_json r =
  J.Obj
    [
      ("version", J.Int version);
      ("n", J.Int r.n);
      ("t", J.Int r.t);
      ("case", case_to_json r.case);
      ("shrink_steps", J.Int r.steps);
      ("shrink_candidates", J.Int r.candidates);
      ("one_minimal", J.Bool r.one_minimal);
    ]

(* --- Decoding ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field what key json =
  match J.member key json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" what key)

let as_int what = function
  | J.Int i -> Ok i
  | _ -> Error (what ^ ": expected an integer")

let as_float what = function
  | J.Float f -> Ok f
  | J.Int i -> Ok (float_of_int i)
  | _ -> Error (what ^ ": expected a number")

let as_string what = function
  | J.String s -> Ok s
  | _ -> Error (what ^ ": expected a string")

let as_list what = function
  | J.List xs -> Ok xs
  | _ -> Error (what ^ ": expected a list")

let as_bool what = function
  | J.Bool b -> Ok b
  | _ -> Error (what ^ ": expected a boolean")

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let point_of_json json =
  let* kind = field "point" "kind" json in
  let* kind = as_string "point.kind" kind in
  match kind with
  | "before_send" -> Ok Crash.Before_send
  | "after_send" -> Ok Crash.After_send
  | "after_data" ->
    let* k = field "point" "prefix" json in
    let* k = as_int "point.prefix" k in
    Ok (Crash.After_data k)
  | "during_data" -> (
    let* xs = field "point" "delivered" json in
    let* xs = as_list "point.delivered" xs in
    let* pids = map_result (as_int "point.delivered") xs in
    match Pid.set_of_ints pids with
    | s -> Ok (Crash.During_data s)
    | exception Invalid_argument why -> Error ("point.delivered: " ^ why))
  | k -> Error (Printf.sprintf "point.kind: unknown kind %S" k)

let schedule_of_json json =
  let* entries = as_list "schedule" json in
  let* bindings =
    map_result
      (fun entry ->
        let* pid = field "crash" "pid" entry in
        let* pid = as_int "crash.pid" pid in
        let* round = field "crash" "round" entry in
        let* round = as_int "crash.round" round in
        let* point = field "crash" "point" entry in
        let* point = point_of_json point in
        match (Pid.of_int pid, Crash.make ~round point) with
        | pid, ev -> Ok (pid, ev)
        | exception Invalid_argument why -> Error ("crash: " ^ why))
      entries
  in
  match Schedule.of_list bindings with
  | s -> Ok s
  | exception Invalid_argument why -> Error ("schedule: " ^ why)

let action_of_json = function
  | J.String "deliver" -> Ok Net.Fault_plan.Deliver
  | J.String "lose" -> Ok Net.Fault_plan.Lose
  | json -> (
    match J.member "copies" json with
    | Some copies ->
      let* ls = as_list "action.copies" copies in
      let* ls = map_result (as_float "action.copies") ls in
      Ok (Net.Fault_plan.Copies ls)
    | None -> Error "action: expected \"deliver\", \"lose\" or {copies}")

let case_of_json json =
  let* kind = field "case" "kind" json in
  let* kind = as_string "case.kind" kind in
  match kind with
  | "consensus" ->
    let* algo = field "case" "algo" json in
    let* algo = as_string "case.algo" algo in
    let* schedule = field "case" "schedule" json in
    let* schedule = schedule_of_json schedule in
    let* property = field "case" "property" json in
    let* property = as_string "case.property" property in
    Ok (Consensus { algo; schedule; property })
  | "cross_engine" ->
    let* schedule = field "case" "schedule" json in
    let* schedule = schedule_of_json schedule in
    Ok (Cross_engine { schedule })
  | "chaos" ->
    let* budget = field "case" "budget" json in
    let* budget = as_int "case.budget" budget in
    let* seed = field "case" "engine_seed" json in
    let* seed = as_int "case.engine_seed" seed in
    let* actions = field "case" "actions" json in
    let* actions = as_list "case.actions" actions in
    let* actions = map_result action_of_json actions in
    Ok
      (Chaos
         {
           budget;
           engine_seed = Int64.of_int seed;
           actions = Array.of_list actions;
         })
  | k -> Error (Printf.sprintf "case.kind: unknown kind %S" k)

let of_json json =
  let* v = field "repro" "version" json in
  let* v = as_int "version" v in
  if v <> version then
    Error (Printf.sprintf "unsupported repro version %d (expected %d)" v version)
  else
    let* n = field "repro" "n" json in
    let* n = as_int "n" n in
    let* t = field "repro" "t" json in
    let* t = as_int "t" t in
    let* case = field "repro" "case" json in
    let* case = case_of_json case in
    let* steps = field "repro" "shrink_steps" json in
    let* steps = as_int "shrink_steps" steps in
    let* candidates = field "repro" "shrink_candidates" json in
    let* candidates = as_int "shrink_candidates" candidates in
    let* one_minimal = field "repro" "one_minimal" json in
    let* one_minimal = as_bool "one_minimal" one_minimal in
    Ok { n; t; case; steps; candidates; one_minimal }

let of_string s =
  let* json = J.of_string s in
  of_json json

(* --- Files ---------------------------------------------------------------- *)

let save ~file r = J.save_atomic ~file (to_json r)

type load_error = { file : string; offset : int option; reason : string }

let load_error_to_string e =
  match e.offset with
  | Some off -> Printf.sprintf "%s: byte %d: %s" e.file off e.reason
  | None -> Printf.sprintf "%s: %s" e.file e.reason

let load file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error why -> Error { file; offset = None; reason = why }
  | contents -> (
    match J.of_string_located contents with
    | Error (off, reason) ->
      Error { file; offset = Some off; reason = "JSON parse error: " ^ reason }
    | Ok json -> (
      match of_json json with
      | Ok r -> Ok r
      | Error reason -> Error { file; offset = None; reason }
      (* Belt and braces: however mangled the artifact, loading must come
         back as a structured error, never an exception. *)
      | exception e ->
        Error
          {
            file;
            offset = None;
            reason = "malformed artifact: " ^ Printexc.to_string e;
          }))

(* --- Replay --------------------------------------------------------------- *)

let replay r =
  match r.case with
  | Consensus { algo; schedule; property } -> (
    let* a = Algo.find algo in
    let res = a.Algo.runner ~n:r.n ~t:r.t schedule in
    let checks = Algo.checks a ~t:r.t res in
    match
      List.find_opt (fun c -> c.Spec.Properties.name = property) checks
    with
    | None ->
      Error
        (Printf.sprintf "no check named %S among the %s verdicts" property
           algo)
    | Some c ->
      if c.Spec.Properties.ok then
        Error
          (Printf.sprintf
             "did not reproduce: %s passes %S on the recorded schedule" algo
             property)
      else Ok [ Printf.sprintf "%s: %s" c.Spec.Properties.name c.Spec.Properties.detail ])
  | Cross_engine { schedule } -> (
    match Oracle.check_schedule ~n:r.n ~t:r.t schedule with
    | Oracle.Disagree { diffs; _ } -> Ok diffs
    | Oracle.Agree _ ->
      Error "did not reproduce: all engines agree on the recorded schedule")
  | Chaos { budget; engine_seed; actions } -> (
    let faults = Net.Fault_plan.scripted ~name:"repro" actions in
    match
      Oracle.check_masked ~n:r.n ~budget ~faults ~seed:engine_seed ()
    with
    | Oracle.Wrong why, _ -> Ok [ why ]
    | (Oracle.Masked | Oracle.Detected _), _ ->
      Error
        "did not reproduce: the scripted run is masked or cleanly detected")

(* --- Reporting ------------------------------------------------------------ *)

let pp_case ppf = function
  | Consensus { algo; schedule; property } ->
    Format.fprintf ppf "@[<v>algorithm: %s@,violated property: %s@,schedule: %a@]"
      algo property Schedule.pp schedule
  | Cross_engine { schedule } ->
    Format.fprintf ppf "@[<v>cross-engine disagreement@,schedule: %a@]"
      Schedule.pp schedule
  | Chaos { budget; engine_seed; actions } ->
    Format.fprintf ppf
      "@[<v>chaos (retry budget %d, engine seed %Ld)@,script: %a@]" budget
      engine_seed
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         Net.Fault_plan.pp_action)
      (Array.to_list actions)

let pp ppf r =
  Format.fprintf ppf
    "@[<v>n = %d, t = %d@,%a@,shrink: %d steps over %d candidates%s@]" r.n r.t
    pp_case r.case r.steps r.candidates
    (if r.one_minimal then ", 1-minimal" else "")

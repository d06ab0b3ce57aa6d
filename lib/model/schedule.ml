type t = Crash.event Pid.Map.t

let empty = Pid.Map.empty

let add pid event sched =
  if Pid.Map.mem pid sched then
    invalid_arg
      (Printf.sprintf "Schedule.add: %s already crashes" (Pid.to_string pid));
  Pid.Map.add pid event sched

let of_list l = List.fold_left (fun acc (pid, ev) -> add pid ev acc) empty l

let find sched pid = Pid.Map.find_opt pid sched
let iter f sched = Pid.Map.iter f sched

let f sched = Pid.Map.cardinal sched

let faulty sched =
  Pid.Map.fold (fun pid _ acc -> Pid.Set.add pid acc) sched Pid.Set.empty

let bindings = Pid.Map.bindings

let max_crash_round sched =
  Pid.Map.fold (fun _ (ev : Crash.event) acc -> max ev.round acc) sched 0

let validate ~model ~n ~t sched =
  let ( let* ) = Result.bind in
  let* () =
    if f sched <= t then Ok ()
    else Error (Printf.sprintf "schedule has %d crashes but t = %d" (f sched) t)
  in
  Pid.Map.fold
    (fun pid ev acc ->
      let* () = acc in
      let* () =
        if Pid.to_int pid <= n then Ok ()
        else Error (Printf.sprintf "%s outside 1..%d" (Pid.to_string pid) n)
      in
      Crash.valid_for model ev)
    sched (Ok ())

let pp ppf sched =
  if Pid.Map.is_empty sched then Format.pp_print_string ppf "no-crash"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
      (fun ppf (pid, ev) -> Format.fprintf ppf "%a%a" Pid.pp pid Crash.pp ev)
      ppf (bindings sched)

let to_string sched = Format.asprintf "%a" pp sched

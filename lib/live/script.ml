open Model

type phase =
  | Before_send
  | During_data of int
  | During_ctl of int
  | After_send

type kill = { pid : Pid.t; round : int; phase : phase }

type t = kill list

let phase_to_string = function
  | Before_send -> "before"
  | During_data k -> Printf.sprintf "data=%d" k
  | During_ctl k -> Printf.sprintf "ctl=%d" k
  | After_send -> "after"

let kill_to_string k =
  Printf.sprintf "%s@r%d:%s" (Pid.to_string k.pid) k.round (phase_to_string k.phase)

let to_string script = String.concat " " (List.map kill_to_string script)

let pp ppf script =
  Format.pp_print_string ppf
    (if script = [] then "no-kill" else to_string script)

let parse_kill s =
  let fail () =
    Error
      (Printf.sprintf
         "cannot parse kill %S (expected pN@rN:before|data=K|ctl=K|after)" s)
  in
  let int_of s = match int_of_string_opt s with Some i -> Ok i | None -> fail () in
  match String.index_opt s '@' with
  | None -> fail ()
  | Some at -> (
    match String.index_from_opt s at ':' with
    | None -> fail ()
    | Some colon ->
      let pid_s = String.sub s 0 at in
      let round_s = String.sub s (at + 1) (colon - at - 1) in
      let phase_s = String.sub s (colon + 1) (String.length s - colon - 1) in
      let ( let* ) = Result.bind in
      let* pid =
        if String.length pid_s >= 2 && pid_s.[0] = 'p' then
          let* i = int_of (String.sub pid_s 1 (String.length pid_s - 1)) in
          if i >= 1 then Ok (Pid.of_int i) else fail ()
        else fail ()
      in
      let* round =
        if String.length round_s >= 2 && round_s.[0] = 'r' then
          let* r = int_of (String.sub round_s 1 (String.length round_s - 1)) in
          if r >= 1 then Ok r else fail ()
        else fail ()
      in
      let* phase =
        match phase_s with
        | "before" -> Ok Before_send
        | "after" -> Ok After_send
        | _ -> (
          match String.index_opt phase_s '=' with
          | Some eq -> (
            let step = String.sub phase_s 0 eq in
            let* k =
              int_of (String.sub phase_s (eq + 1) (String.length phase_s - eq - 1))
            in
            if k < 0 then fail ()
            else
              match step with
              | "data" -> Ok (During_data k)
              | "ctl" -> Ok (During_ctl k)
              | _ -> fail ())
          | None -> fail ())
      in
      Ok { pid; round; phase })

let find script pid = List.find_opt (fun k -> Pid.equal k.pid pid) script

let validate ~n ~max_kills script =
  let ( let* ) = Result.bind in
  let* () =
    if List.length script <= max_kills then Ok ()
    else
      Error
        (Printf.sprintf "script kills %d processes but at most %d may crash"
           (List.length script) max_kills)
  in
  List.fold_left
    (fun acc k ->
      let* () = acc in
      let* () =
        if Pid.to_int k.pid <= n then Ok ()
        else Error (Printf.sprintf "%s outside 1..%d" (Pid.to_string k.pid) n)
      in
      if
        List.exists
          (fun k' -> k' != k && Pid.equal k'.pid k.pid)
          script
      then Error (Printf.sprintf "%s is killed twice" (Pid.to_string k.pid))
      else Ok ())
    (Ok ()) script

let writes_completed phase ~data ~ctl =
  match phase with
  | Before_send -> 0
  | During_data k -> min k data
  | During_ctl k -> data + min k ctl
  | After_send -> data + ctl

let phase_of_writes k ~data ~ctl =
  if k <= 0 then Before_send
  else if k < data then During_data k
  else if k < data + ctl then During_ctl (k - data)
  else After_send

let default ~n ~f =
  List.init f (fun i ->
      let r = i + 1 in
      let data = max 0 (n - r) in
      let half = max 1 ((data + 1) / 2) in
      let phase =
        if i mod 2 = 0 then During_data (min half data) else During_ctl half
      in
      { pid = Pid.of_int r; round = r; phase })

let to_schedule ~send_plan script =
  Schedule.of_list
    (List.map
       (fun k ->
         let data_order, ctl_order = send_plan ~me:k.pid ~round:k.round in
         let point =
           match k.phase with
           | Before_send -> Crash.Before_send
           | During_data i ->
             let rec take acc n = function
               | d :: rest when n > 0 -> take (d :: acc) (n - 1) rest
               | _ -> List.rev acc
             in
             let delivered = take [] i data_order in
             if List.length delivered = List.length data_order then
               (* all data written: on the wire this is indistinguishable
                  from dying just before the first control write *)
               Crash.After_data 0
             else Crash.During_data (Pid.Set.of_list delivered)
           | During_ctl i -> Crash.After_data (min i (List.length ctl_order))
           | After_send -> Crash.After_send
         in
         (k.pid, Crash.make ~round:k.round point))
       script)

(* BENCHMARK.json: the one place that names the workloads, metrics, units
   and bounds.  The benchmark refuses to emit a metric this file does not
   list, and [validate] holds the file to the shape and limits its readers
   rely on. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
  run_seconds : int;
}

let ( let* ) = Result.bind

let field key j =
  match Obs.Json.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" key)

let string_of key j =
  match field key j with
  | Ok (Obs.Json.String s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "%S must be a string" key)
  | Error e -> Error e

let list_of key j =
  match field key j with
  | Ok (Obs.Json.List l) -> Ok l
  | Ok _ -> Error (Printf.sprintf "%S must be a list" key)
  | Error e -> Error e

let number = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

let keys_exactly want j =
  match j with
  | Obs.Json.Obj fields ->
    let have = List.map fst fields in
    if List.sort compare have = List.sort compare want then Ok ()
    else
      Error
        (Printf.sprintf "keys {%s}, expected exactly {%s}"
           (String.concat ", " have) (String.concat ", " want))
  | _ -> Error "expected an object"

let all_ok f l =
  List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l

let map_ok f l =
  List.fold_right
    (fun x acc ->
      let* rest = acc in
      let* y = f x in
      Ok (y :: rest))
    l (Ok [])

let metric ~bounded j =
  let* () =
    keys_exactly
      (if bounded then [ "name"; "unit"; "better"; "bound" ]
       else [ "name"; "unit"; "better" ])
      j
  in
  let* name = string_of "name" j in
  let* unit_ = string_of "unit" j in
  let* better =
    match string_of "better" j with
    | Ok "lower" -> Ok Lower
    | Ok "higher" -> Ok Higher
    | Ok b -> Error (Printf.sprintf "%s: better must be lower or higher, not %S" name b)
    | Error e -> Error e
  in
  let* bound =
    if not bounded then Ok None
    else
      match Option.bind (Obs.Json.member "bound" j) number with
      | Some b -> Ok (Some b)
      | None -> Error (name ^ ": bound must be a number")
  in
  Ok { name; unit_; better; bound }

let of_json j =
  let* () =
    keys_exactly
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      j
  in
  let* workloads = list_of "workloads" j in
  let* workloads =
    map_ok
      (fun w ->
        let* () = keys_exactly [ "name"; "why" ] w in
        string_of "name" w)
      workloads
  in
  let* e2e = list_of "end_to_end" j in
  let* end_to_end = map_ok (metric ~bounded:true) e2e in
  let* layers = list_of "per_layer" j in
  let* per_layer = map_ok (metric ~bounded:false) layers in
  let* run_seconds =
    match field "run_seconds" j with
    | Ok (Obs.Json.Int s) -> Ok s
    | Ok _ -> Error "run_seconds must be a whole number"
    | Error e -> Error e
  in
  Ok { workloads; end_to_end; per_layer; run_seconds }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Obs.Json.of_string text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> (
      match of_json j with
      | Ok t -> Ok (t, j, String.length text)
      | Error e -> Error (path ^ ": " ^ e)))

(* --- the limits every reader of the file relies on ----------------------- *)

let chars_ok ok s = String.for_all ok s

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let name_ok s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && chars_ok (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let unit_ok s =
  String.length s >= 1
  && String.length s <= 16
  && chars_ok
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let path_ok s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && (not (List.mem ".." (String.split_on_char '/' s)))
  && chars_ok (fun c -> is_alnum c || c = '_' || c = '.' || c = '-' || c = '/') s

let check cond msg = if cond then Ok () else Error msg

let validate (t, j, size) =
  let* () = check (size <= 64 * 1024) "file larger than 64 KiB" in
  let* paths = list_of "paths" j in
  let* () =
    check (List.length paths >= 1 && List.length paths <= 16) "1 to 16 paths"
  in
  let* () =
    all_ok
      (function
        | Obs.Json.String p -> check (path_ok p) ("bad path " ^ p)
        | _ -> Error "paths must be strings")
      paths
  in
  let* command = list_of "command" j in
  let* () =
    check
      (List.length command >= 1 && List.length command <= 32)
      "command: 1 to 32 strings"
  in
  let* () =
    all_ok
      (function
        | Obs.Json.String s ->
          check
            (String.length s <= 200 && (s = "" || s.[0] <> '/'))
            ("bad command word " ^ s)
        | _ -> Error "command words must be strings")
      command
  in
  let* () =
    check (t.run_seconds >= 1 && t.run_seconds <= 60) "run_seconds in 1..60"
  in
  let* workloads = list_of "workloads" j in
  let* () =
    check
      (List.length workloads >= 2 && List.length workloads <= 8)
      "2 to 8 workloads"
  in
  let* () =
    all_ok
      (fun w ->
        let* why = string_of "why" w in
        check
          (String.length why <= 200 && not (String.contains why '\n'))
          "a why is one line of at most 200 characters")
      workloads
  in
  let n_e2e = List.length t.end_to_end and n_layer = List.length t.per_layer in
  let* () = check (n_e2e >= 1 && n_e2e <= 16) "1 to 16 end_to_end metrics" in
  let* () = check (n_layer >= 1 && n_layer <= 128) "1 to 128 per_layer metrics" in
  let names =
    t.workloads @ List.map (fun m -> m.name) (t.end_to_end @ t.per_layer)
  in
  let* () =
    all_ok (fun s -> check (name_ok s) ("bad name " ^ s)) names
  in
  let* () =
    check
      (List.length (List.sort_uniq compare names) = List.length names)
      "every name is used once"
  in
  let* () =
    all_ok
      (fun m -> check (unit_ok m.unit_) ("bad unit " ^ m.unit_))
      (t.end_to_end @ t.per_layer)
  in
  let* () =
    all_ok
      (fun m ->
        match m.bound with
        | Some b -> check (b > 0.0 && b <= 0.25) (m.name ^ ": bound in (0, 0.25]")
        | None -> Error (m.name ^ ": no bound"))
      t.end_to_end
  in
  match List.find_opt (fun m -> m.name = "setup_s") t.end_to_end with
  | Some m ->
    let largest =
      List.fold_left
        (fun acc m -> Float.max acc (Option.value m.bound ~default:0.0))
        0.0 t.end_to_end
    in
    check
      (m.unit_ = "s" && m.better = Lower && m.bound = Some largest)
      "setup_s: unit s, lower is better, and the largest bound"
  | None -> Error "no setup_s metric"

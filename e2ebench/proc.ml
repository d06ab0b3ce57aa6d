(* Process accounting read from outside the program: /proc/<pid>/stat for
   CPU ticks and /proc/<pid>/status for the resident high-water mark.  The
   engines run in forked processes the benchmark cannot instrument, so
   these files are the only view of their cost. *)

(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat on Linux. *)
let clk_tck = 100.0

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Fields after the parenthesised command name, which may itself contain
   spaces: index 0 is the state (field 3 of proc(5)), 1 the ppid, 11 utime
   and 12 stime. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | Some i when i + 2 < String.length s ->
      Some
        (Array.of_list
           (String.split_on_char ' '
              (String.sub s (i + 2) (String.length s - i - 2))))
    | _ -> None)

let field fields k =
  if k < Array.length fields then int_of_string_opt fields.(k) else None

let cpu_seconds pid =
  match stat_fields pid with
  | None -> 0.0
  | Some f -> (
    match (field f 11, field f 12) with
    | Some u, Some s -> float_of_int (u + s) /. clk_tck
    | _ -> 0.0)

let children () =
  let me = Unix.getpid () in
  Array.fold_left
    (fun acc name ->
      match int_of_string_opt name with
      | None -> acc
      | Some pid -> (
        match stat_fields pid with
        | Some f when field f 1 = Some me -> pid :: acc
        | _ -> acc))
    []
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* CPU seconds of this process, its reaped children and its live children.
   Two readings bracket a measured window; the benchmark's own thread does
   all reaping, so no child moves between the two terms mid-reading. *)
let tree_cpu () =
  let t = Unix.times () in
  List.fold_left
    (fun acc pid -> acc +. cpu_seconds pid)
    (t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
   +. t.Unix.tms_cstime)
    (children ())

(* VmHWM in KiB; 0 once the process has exited. *)
let peak_rss_kib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kib :: _ -> Option.value (int_of_string_opt kib) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' s)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

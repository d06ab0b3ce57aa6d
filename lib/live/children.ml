let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type exit_obs = [ `Exited of int | `Signaled of int | `Stop_killed ]

let fatal ?log e =
  let line = Printf.sprintf "fatal: %s\n" (Printexc.to_string e) in
  try
    match log with
    | None -> Printf.eprintf "%s%!" line
    | Some file ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      output_string oc line;
      close_out oc
  with _ -> ()

let fork ?log body =
  match Unix.fork () with
  | 0 ->
    let code = try body () with e -> fatal ?log e; 3 in
    Unix._exit code
  | pid -> pid

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let wait pid =
  match waitpid [] pid with
  | _, Unix.WEXITED c -> `Exited c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> `Signaled s
  | exception Unix.Unix_error _ -> `Exited 0

type child = {
  id : int;
  mutable pid : int;
  mutable status : Unix.file_descr option;
  lines : Buffer.t;
  mutable exit : exit_obs option;
  mutable respawns : int;
  mutable due : float option;
}

type t = {
  mutable kids : child list;  (* spawn order *)
  mutable fds : Unix.file_descr list;  (* parent-side, closed in children *)
  chunk : Bytes.t;  (* the one read buffer every status pipe shares *)
}

let create () = { kids = []; fds = []; chunk = Bytes.create 4096 }
let register t fd = t.fds <- fd :: t.fds

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let release t fd =
  t.fds <- List.filter (fun f -> f <> fd) t.fds;
  close_quietly fd

(* Fork [body] with a fresh status pipe; the child drops every parent-side
   fd first.  Returns the pid and the parent's read end. *)
let fork_piped t ?log body =
  let r, w = Unix.pipe () in
  let pid =
    fork ?log (fun () ->
        close_quietly r;
        List.iter close_quietly t.fds;
        body w)
  in
  Unix.close w;
  register t r;
  (pid, r)

let add t ~id pid status =
  let c =
    {
      id;
      pid;
      status;
      lines = Buffer.create 256;
      exit = None;
      respawns = 0;
      due = None;
    }
  in
  t.kids <- t.kids @ [ c ];
  c

let spawn t ?log ~id body =
  let pid, r = fork_piped t ?log body in
  add t ~id pid (Some r)

let adopt t pid = ignore (add t ~id:0 pid None)

let close_status t c =
  Option.iter (release t) c.status;
  c.status <- None

let respawn t ?log c body =
  close_status t c;
  Buffer.clear c.lines;
  let pid, r = fork_piped t ?log body in
  c.pid <- pid;
  c.status <- Some r;
  c.exit <- None;
  c.respawns <- c.respawns + 1;
  c.due <- None

(* Hand every newline-terminated line to [on_event]; keep the tail. *)
let drain_lines c ~on_event =
  let s = Buffer.contents c.lines in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some i ->
      (match Obs.Json.of_string (String.sub s start (i - start)) with
      | Ok j -> on_event c j
      | Error _ -> ());
      go (i + 1)
    | None ->
      Buffer.clear c.lines;
      Buffer.add_substring c.lines s start (String.length s - start)
  in
  go 0

let read_status t c ~on_event =
  match c.status with
  | None -> ()
  | Some fd -> (
    match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> close_status t c
    | k ->
      Buffer.add_subbytes c.lines t.chunk 0 k;
      drain_lines c ~on_event
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ())

let status_event oc fields =
  output_string oc (Obs.Json.to_string (Obs.Json.Obj fields));
  output_char oc '\n';
  flush oc

let logf oc ~me fmt =
  Printf.ksprintf
    (fun s ->
      Printf.fprintf oc "[%.6f p%d] %s\n" (Sockets.now ()) me s;
      flush oc)
    fmt

let pump t ~timeout ~on_event =
  match List.filter_map (fun c -> c.status) t.kids with
  | [] -> if timeout > 0.0 then Sockets.sleep_until (Sockets.now () +. timeout)
  | fds -> (
    match Unix.select fds [] [] timeout with
    | [], _, _ -> ()
    | ready, _, _ ->
      List.iter
        (fun c ->
          match c.status with
          | Some fd when List.mem fd ready -> read_status t c ~on_event
          | _ -> ())
        t.kids
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap c =
  if c.exit <> None then None
  else begin
    (match waitpid [ Unix.WNOHANG; Unix.WUNTRACED ] c.pid with
    | 0, _ -> ()
    | _, Unix.WSTOPPED _ ->
      kill_quietly c.pid;
      ignore (wait c.pid);
      c.exit <- Some `Stop_killed
    | _, Unix.WEXITED code -> c.exit <- Some (`Exited code)
    | _, Unix.WSIGNALED s -> c.exit <- Some (`Signaled s)
    | exception Unix.Unix_error _ -> c.exit <- Some (`Exited 0));
    c.exit
  end

let kill c =
  c.exit = None
  &&
  match Unix.kill c.pid Sys.sigkill with
  | () -> true
  | exception Unix.Unix_error _ -> false

let respawn_delay ~budget ~base attempt =
  if attempt >= budget then None
  else Some (base *. Float.of_int (1 lsl attempt))

let schedule_respawn c ~budget ~base =
  let delay = respawn_delay ~budget ~base c.respawns in
  Option.iter (fun d -> c.due <- Some (Sockets.now () +. d)) delay;
  delay

let respawn_due c =
  match c.due with Some at -> Sockets.now () >= at | None -> false

let teardown ?sockets t =
  List.iter
    (fun c ->
      if c.exit = None then begin
        kill_quietly c.pid;
        ignore (wait c.pid);
        c.exit <- Some (`Signaled Sys.sigkill)
      end;
      c.status <- None)
    t.kids;
  List.iter close_quietly t.fds;
  t.fds <- [];
  match sockets with
  | None -> ()
  | Some (transport, n) ->
    for i = 1 to n do
      match Sockets.addr_of ~transport i with
      | Unix.ADDR_UNIX path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
      | Unix.ADDR_INET _ -> ()
    done

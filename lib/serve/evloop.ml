type backend = Poll

external poll_wait :
  Unix.file_descr array -> int array -> int -> int array = "serve_poll_wait"

type interest = { mutable read : bool; mutable write : bool }
type t = (Unix.file_descr, interest) Hashtbl.t

let create ?backend:_ () = Hashtbl.create 64

let register t fd ~read ~write =
  match Hashtbl.find_opt t fd with
  | Some i ->
    i.read <- read;
    i.write <- write
  | None -> Hashtbl.replace t fd { read; write }

let deregister t fd = Hashtbl.remove t fd
let registered t = Hashtbl.length t

(* The registry is snapshotted into arrays before blocking: callbacks run
   against the snapshot, never against the live table. *)
let wait t ~timeout ~handle =
  let n = Hashtbl.length t in
  let fds = Array.make n Unix.stdin in
  let events = Array.make n 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun fd i ->
      fds.(!k) <- fd;
      events.(!k) <- (if i.read then 1 else 0) lor (if i.write then 2 else 0);
      incr k)
    t;
  let timeout_ms =
    if timeout <= 0.0 then 0
    else
      (* ceil: never round a positive timeout down to a busy-spin 0. *)
      int_of_float (Float.min 3600_000.0 (Float.ceil (timeout *. 1000.0)))
  in
  let revents = poll_wait fds events timeout_ms in
  let count = ref 0 in
  Array.iteri
    (fun i r ->
      (* Only report events the caller asked for: poll flags HUP/ERR
         whatever the interest, and a hung-up fd registered for neither
         direction must stay silent. *)
      let r = r land events.(i) in
      if r <> 0 then begin
        incr count;
        handle fds.(i) ~readable:(r land 1 <> 0) ~writable:(r land 2 <> 0)
      end)
    revents;
  !count

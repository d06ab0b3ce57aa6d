type backend = Poll

external poll_wait :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "serve_poll_wait"

type interest = { mutable read : bool; mutable write : bool }

(* The registry, and the arrays [wait] hands to poll: rebuilt from the
   registry only after it changed, so a steady loop reuses them and a
   wait allocates nothing. *)
type t = {
  registry : (Unix.file_descr, interest) Hashtbl.t;
  mutable dirty : bool;
  mutable count : int;
  mutable fds : Unix.file_descr array;
  mutable events : int array;
  mutable revents : int array;
}

let create ?backend:_ () =
  {
    registry = Hashtbl.create 64;
    dirty = false;
    count = 0;
    fds = [||];
    events = [||];
    revents = [||];
  }

let register t fd ~read ~write =
  match Hashtbl.find t.registry fd with
  | i ->
    if i.read <> read || i.write <> write then begin
      i.read <- read;
      i.write <- write;
      t.dirty <- true
    end
  | exception Not_found ->
    Hashtbl.replace t.registry fd { read; write };
    t.dirty <- true

let deregister t fd =
  if Hashtbl.mem t.registry fd then begin
    Hashtbl.remove t.registry fd;
    t.dirty <- true
  end

let registered t = Hashtbl.length t.registry

let rebuild t =
  let n = Hashtbl.length t.registry in
  if Array.length t.fds < n then begin
    let cap = max n (2 * Array.length t.fds) in
    t.fds <- Array.make cap Unix.stdin;
    t.events <- Array.make cap 0;
    t.revents <- Array.make cap 0
  end;
  let k = ref 0 in
  Hashtbl.iter
    (fun fd i ->
      t.fds.(!k) <- fd;
      t.events.(!k) <- (if i.read then 1 else 0) lor (if i.write then 2 else 0);
      incr k)
    t.registry;
  t.count <- n;
  t.dirty <- false

(* Callbacks run against the arrays as they stood before the wait: a
   registry change they make only marks the next wait's rebuild. *)
let wait t ~timeout ~handle =
  if t.dirty then rebuild t;
  let timeout_ms =
    if timeout <= 0.0 then 0
    else if timeout >= 3600.0 then 3600_000
    else
      (* ceil: never round a positive timeout down to a busy-spin 0. *)
      int_of_float (Float.ceil (timeout *. 1000.0))
  in
  let n = t.count in
  let count = ref 0 in
  if poll_wait t.fds t.events t.revents n timeout_ms > 0 then
    for i = 0 to n - 1 do
      (* Only report events the caller asked for: poll flags HUP/ERR
         whatever the interest, and a hung-up fd registered for neither
         direction must stay silent. *)
      let r = t.revents.(i) land t.events.(i) in
      if r <> 0 then begin
        incr count;
        handle t.fds.(i) ~readable:(r land 1 <> 0) ~writable:(r land 2 <> 0)
      end
    done;
  !count

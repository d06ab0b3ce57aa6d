type chunk = {
  bytes : Bytes.t;
  len : int;
  mutable shares : int;  (* queues still holding this chunk *)
  recycle : Bytes.t -> unit;
}

let chunk ?(shares = 1) ~recycle bytes ~len =
  if shares < 1 then invalid_arg "Outq.chunk: shares < 1";
  { bytes; len; shares; recycle }

let release_share c =
  c.shares <- c.shares - 1;
  if c.shares = 0 then c.recycle c.bytes

(* Per-queue cursor into the (shared) chunk: two clients draining the
   same broadcast chunk at different speeds each track their own offset. *)
type cell = { c : chunk; mutable off : int }

type t = {
  lanes : cell Queue.t array;
  mutable queued : int;  (* unsent bytes across all lanes *)
  mutable cut : int;  (* the lane whose head chunk is partly written, or -1 *)
  hwm : int;
}

let default_hwm = 8 * 1024 * 1024

let create ?(hwm = default_hwm) ?(lanes = 1) () =
  if lanes < 1 then invalid_arg "Outq.create: lanes < 1";
  {
    lanes = Array.init lanes (fun _ -> Queue.create ());
    queued = 0;
    cut = -1;
    hwm;
  }

let push ?(lane = 0) t c =
  Queue.push { c; off = 0 } t.lanes.(lane);
  t.queued <- t.queued + c.len

let is_empty ?lane t =
  match lane with
  | Some l -> Queue.is_empty t.lanes.(l)
  | None -> Array.for_all Queue.is_empty t.lanes

let queued_bytes t = t.queued
let over_hwm t = t.queued > t.hwm

let count_write stats full =
  match stats with
  | None -> ()
  | Some s ->
    s.Stats.write_calls <- s.Stats.write_calls + 1;
    if not full then s.Stats.partial_writes <- s.Stats.partial_writes + 1

(* Write [lane]'s chunks until it empties or the fd stops taking bytes;
   with [one], stop after the head chunk. *)
let write_lane t ?stats fd lane ~one =
  let q = t.lanes.(lane) in
  let rec go () =
    match Queue.peek_opt q with
    | None -> `Empty
    | Some cell -> (
      let remaining = cell.c.len - cell.off in
      match Unix.write fd cell.c.bytes cell.off remaining with
      | n ->
        t.queued <- t.queued - n;
        count_write stats (n = remaining);
        if n = remaining then begin
          ignore (Queue.pop q);
          release_share cell.c;
          t.cut <- -1;
          if one then `Empty else go ()
        end
        else begin
          cell.off <- cell.off + n;
          t.cut <- lane;
          (* The kernel took a partial write: the buffer is full, a
             longer spin would only get EAGAIN. *)
          `Blocked
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Blocked
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (errno, _, _) ->
        `Closed (Unix.error_message errno))
  in
  go ()

let drain t ?(lane = 0) ?stats fd =
  (* A chunk another lane left half-written goes out first, and alone:
     lanes switch only between whole chunks. *)
  let finished =
    if t.cut >= 0 && t.cut <> lane then write_lane t ?stats fd t.cut ~one:true
    else `Empty
  in
  match finished with
  | `Empty -> write_lane t ?stats fd lane ~one:false
  | (`Blocked | `Closed _) as r -> r

let clear t =
  Array.iter
    (fun q ->
      Queue.iter (fun cell -> release_share cell.c) q;
      Queue.clear q)
    t.lanes;
  t.queued <- 0;
  t.cut <- -1

type action =
  | Cut of { at : float; duration : float }
  | Reset of { at : float }
  | Throttle of { at : float; duration : float; bytes_per_sec : int }
  | Corrupt of { at : float; bytes : int }

let pp_action ppf = function
  | Cut { at; duration } -> Format.fprintf ppf "cut@%.3f+%.3fs" at duration
  | Reset { at } -> Format.fprintf ppf "reset@%.3f" at
  | Throttle { at; duration; bytes_per_sec } ->
    Format.fprintf ppf "throttle@%.3f+%.3fs %dB/s" at duration bytes_per_sec
  | Corrupt { at; bytes } -> Format.fprintf ppf "corrupt@%.3f %dB" at bytes

type link = { src : int; dst : int; actions : action list }

let proxy_addr ~transport ~n ~src ~dst =
  match transport with
  | `Unix dir ->
    Unix.ADDR_UNIX
      (Filename.concat dir (Printf.sprintf "chaos-%d-%d.sock" src dst))
  | `Tcp base ->
    Unix.ADDR_INET (Unix.inet_addr_loopback, base + n + ((src - 1) * n) + dst)

let cleanup ~transport ~n:_ link =
  match transport with
  | `Unix dir -> (
    try
      Unix.unlink
        (Filename.concat dir
           (Printf.sprintf "chaos-%d-%d.sock" link.src link.dst))
    with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()

let generate ~seed ~horizon ?(cuts = 0) ?(cut_len = 0.05) ?(resets = 0)
    ?(throttles = 0) ?(corrupts = 0) () =
  let rng = Prng.Rng.of_int seed in
  let at () = Prng.Rng.float rng horizon in
  let acc = ref [] in
  for _ = 1 to cuts do
    acc := Cut { at = at (); duration = cut_len } :: !acc
  done;
  for _ = 1 to resets do
    acc := Reset { at = at () } :: !acc
  done;
  for _ = 1 to throttles do
    acc :=
      Throttle { at = at (); duration = 2.0 *. cut_len; bytes_per_sec = 51200 }
      :: !acc
  done;
  for _ = 1 to corrupts do
    acc := Corrupt { at = at (); bytes = 1 } :: !acc
  done;
  List.sort
    (fun a b ->
      let at_of = function
        | Cut { at; _ } | Reset { at } | Throttle { at; _ } | Corrupt { at; _ }
          ->
          at
      in
      compare (at_of a) (at_of b))
    !acc

(* One-shot actions (Reset, Corrupt) fire once per proxy lifetime, not
   once per relay session — a healed link must not be reset again by the
   same script entry when the engine re-dials. *)
type live = { act : action; mutable fired : bool }

(* One relay direction: a fixed buffer holding the unforwarded remainder
   of the last read, plus a token bucket for throttling.  [allowance =
   infinity] means unthrottled. *)
type dir = {
  from_fd : Unix.file_descr;
  to_fd : Unix.file_descr;
  pending : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable allowance : float;
  corrupt : bool;  (* corruption applies to the src -> dst direction *)
}

let flush_dir d closed =
  if d.len > 0 then begin
    let quota =
      if d.allowance = infinity then d.len
      else min d.len (int_of_float d.allowance)
    in
    if quota > 0 then (
      match Unix.write d.to_fd d.pending d.off quota with
      | k ->
        d.off <- d.off + k;
        d.len <- d.len - k;
        if d.allowance <> infinity then
          d.allowance <- d.allowance -. float_of_int k;
        if d.len = 0 then d.off <- 0
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error _ -> closed := true)
  end

let session ~t0 lives down up =
  Unix.set_nonblock down;
  Unix.set_nonblock up;
  let mk from_fd to_fd corrupt =
    {
      from_fd;
      to_fd;
      pending = Bytes.create 8192;
      off = 0;
      len = 0;
      allowance = infinity;
      corrupt;
    }
  in
  let dirs = [ mk down up true; mk up down false ] in
  let corrupt_left = ref 0 in
  let closed = ref false in
  let last = ref (Live.Sockets.now ()) in
  while not !closed do
    let nw = Live.Sockets.now () in
    let t = nw -. t0 in
    List.iter
      (fun l ->
        if not l.fired then
          match l.act with
          | Reset { at } when t >= at ->
            l.fired <- true;
            closed := true
          | Corrupt { at; bytes } when t >= at ->
            l.fired <- true;
            corrupt_left := !corrupt_left + bytes
          | _ -> ())
      lives;
    if not !closed then begin
      let cut =
        List.exists
          (fun l ->
            match l.act with
            | Cut { at; duration } -> t >= at && t < at +. duration
            | _ -> false)
          lives
      in
      let rate =
        List.fold_left
          (fun acc l ->
            match l.act with
            | Throttle { at; duration; bytes_per_sec }
              when t >= at && t < at +. duration -> (
              match acc with
              | None -> Some bytes_per_sec
              | Some r -> Some (min r bytes_per_sec))
            | _ -> acc)
          None lives
      in
      let dt = nw -. !last in
      last := nw;
      List.iter
        (fun d ->
          match rate with
          | None -> d.allowance <- infinity
          | Some r ->
            let r = float_of_int r in
            if d.allowance = infinity then d.allowance <- 0.0;
            d.allowance <- Float.min (2.0 *. r) (d.allowance +. (r *. dt)))
        dirs;
      List.iter (fun d -> if not !closed then flush_dir d closed) dirs;
      (* A direction with unforwarded bytes stops reading: TCP flow
         control then pushes the backlog to the sender, which is exactly
         how a real slow or cut link behaves. *)
      let want_read =
        if cut then [] else List.filter (fun d -> d.len = 0) dirs
      in
      let rfds = List.map (fun d -> d.from_fd) want_read in
      (match Unix.select rfds [] [] 0.02 with
      | ready, _, _ ->
        List.iter
          (fun d ->
            if (not !closed) && List.memq d.from_fd ready then
              match Live.Sockets.read_chunk d.from_fd d.pending with
              | `Closed -> closed := true
              | `Nothing -> ()
              | `Data k ->
                d.off <- 0;
                d.len <- k;
                if d.corrupt && !corrupt_left > 0 then begin
                  let m = min k !corrupt_left in
                  for i = 0 to m - 1 do
                    Bytes.set d.pending i
                      (Char.chr (Char.code (Bytes.get d.pending i) lxor 0x01))
                  done;
                  corrupt_left := !corrupt_left - m
                end;
                flush_dir d closed)
          want_read
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done;
  (try Unix.close down with Unix.Unix_error _ -> ());
  (try Unix.close up with Unix.Unix_error _ -> ())

let proxy_main ~transport ~lfd link =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Live.Sockets.now () in
  let lives = List.map (fun act -> { act; fired = false }) link.actions in
  let upstream = Live.Sockets.addr_of ~transport link.dst in
  let rec serve () =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      serve ()
    | exception Unix.Unix_error _ -> ()
    | down, _ ->
      (match
         Live.Sockets.connect_retry
           ~deadline:(Live.Sockets.now () +. 5.0)
           upstream
       with
      | Error _ ->
        (* The listening engine is down (killed, not yet respawned):
           drop the dialer and let it retry through a fresh session. *)
        (try Unix.close down with Unix.Unix_error _ -> ());
        Live.Sockets.sleep_until (Live.Sockets.now () +. 0.05)
      | Ok up -> session ~t0 lives down up);
      serve ()
  in
  serve ()

let spawn ~transport ~n link =
  let addr = proxy_addr ~transport ~n ~src:link.src ~dst:link.dst in
  match Live.Sockets.listen addr with
  | Error e ->
    Error
      (Printf.sprintf "chaos proxy %d->%d: %s" link.src link.dst
         (Live.Sockets.error_to_string e))
  | Ok lfd ->
    let pid =
      Live.Children.fork (fun () ->
          proxy_main ~transport ~lfd link;
          0)
    in
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    Ok pid

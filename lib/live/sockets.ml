type error = { op : string; errno : Unix.error option; detail : string }

let error_to_string e =
  match e.errno with
  | Some errno ->
    Printf.sprintf "%s: %s (%s)" e.op e.detail (Unix.error_message errno)
  | None -> Printf.sprintf "%s: %s" e.op e.detail


let err ?errno op detail = Error { op; errno; detail }

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

let now () = Unix.gettimeofday ()

let sleep_until t =
  let rec go () =
    let dt = t -. now () in
    if dt > 0.0 then begin
      (match Unix.select [] [] [] dt with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let addr_of ~transport i =
  match transport with
  | `Unix dir -> Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i))
  | `Tcp base -> Unix.ADDR_INET (Unix.inet_addr_loopback, base + i)

let listen ?(backlog = 16) addr =
  match
    let domain = Unix.domain_of_sockaddr addr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    (match addr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
    match Unix.bind fd addr with
    | () ->
      Unix.listen fd backlog;
      fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (errno, op, _) ->
    err ~errno op (string_of_sockaddr addr)

(* The wait before retry attempt: the exponential backoff level, scaled —
   when a jitter stream is given — by a uniform draw in [0.5, 1.5).  A mass
   respawn (a fleet's worth of engines re-dialing one listener) then spreads
   its retries across the envelope instead of hammering in lockstep. *)
let retry_wait ?jitter backoff =
  match jitter with
  | None -> backoff
  | Some rng -> backoff *. (0.5 +. Prng.Rng.float rng 1.0)

let connect_retry ?(backoff = 0.02) ?(backoff_max = 0.32) ?jitter ~deadline addr
    =
  let rec go backoff =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception
        Unix.Unix_error
          ( (Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR) as errno,
            _,
            _ )
      ->
      Unix.close fd;
      if now () >= deadline then
        err ~errno "connect"
          (Printf.sprintf "peer %s never came up before the deadline"
             (string_of_sockaddr addr))
      else begin
        sleep_until (Float.min deadline (now () +. retry_wait ?jitter backoff));
        go (Float.min backoff_max (backoff *. 2.0))
      end
    | exception Unix.Unix_error (errno, _, _) ->
      Unix.close fd;
      err ~errno "connect" (string_of_sockaddr addr)
  in
  go backoff

let accept_timeout ~deadline fd =
  let rec go () =
    let dt = deadline -. now () in
    if dt <= 0.0 then err "accept" "timed out waiting for a peer"
    else
      match Unix.select [ fd ] [] [] dt with
      | [], _, _ -> go ()
      | _ :: _, _, _ -> (
        match Unix.accept fd with
        | conn, _ ->
          Unix.set_close_on_exec conn;
          Ok conn
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> go ()
        | exception Unix.Unix_error (errno, _, _) -> err ~errno "accept" "")
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (errno, _, _) -> err ~errno "accept" "select"
  in
  go ()

let accept_nonblock fd =
  match Unix.accept fd with
  | conn, _ ->
    Unix.set_close_on_exec conn;
    Unix.set_nonblock conn;
    `Conn conn
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED ),
          _,
          _ ) ->
    `Nothing
  | exception Unix.Unix_error (errno, op, _) ->
    `Error { op; errno = Some errno; detail = "accept" }

let write_all ~deadline fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let dt = deadline -. now () in
        if dt <= 0.0 then
          err "write"
            (Printf.sprintf "send timeout with %d of %d bytes unsent" (len - off)
               len)
        else (
          (match Unix.select [] [ fd ] [] dt with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET) as errno, _, _)
        ->
        err ~errno "write" "peer closed"
      | exception Unix.Unix_error (errno, _, _) -> err ~errno "write" ""
  in
  go 0

let read_chunk fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> `Closed
  | n -> `Data n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    `Nothing
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Closed

let read_exact ~deadline fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Ok (Bytes.to_string buf)
    else
      let dt = deadline -. now () in
      if dt <= 0.0 then err "handshake" "timed out"
      else
        match Unix.select [ fd ] [] [] dt with
        | [], _, _ -> go off
        | _ :: _, _, _ -> (
          match Unix.read fd buf off (n - off) with
          | 0 -> err "handshake" "peer closed"
          | k -> go (off + k)
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            go off
          | exception Unix.Unix_error (errno, _, _) ->
            err ~errno "handshake" "peer closed")
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

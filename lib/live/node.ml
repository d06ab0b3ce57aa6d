open Model

type config = {
  me : int;
  n : int;
  t : int;
  proposal : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;
  delta : float;
  max_rounds : int;
  kill : Script.kill option;
  status : out_channel;
  go : in_channel;
  log : out_channel;
}

let handshake_timeout = 10.0

let dial_hello ?jitter ~deadline ~me addr =
  match Sockets.connect_retry ?jitter ~deadline addr with
  | Error e -> Error ("connect: " ^ Sockets.error_to_string e)
  | Ok fd -> (
    match
      Sockets.write_all ~deadline fd (Frame.encode (Frame.Hello { node = me }))
    with
    | Ok () -> Ok fd
    | Error e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error ("hello: " ^ Sockets.error_to_string e))

let handshake ?jitter ~deadline ~me ~n ~addr ~log lfd =
  let fds = Array.make n None in
  for p = me + 1 to n do
    match dial_hello ?jitter ~deadline ~me (addr p) with
    | Ok fd ->
      fds.(p - 1) <- Some fd;
      log (Printf.sprintf "dialed p%d" p)
    | Error why -> failwith (Printf.sprintf "p%d: %s" p why)
  done;
  let expected = ref (me - 1) in
  while !expected > 0 do
    match Sockets.accept_timeout ~deadline lfd with
    | Error e -> failwith (Sockets.error_to_string e)
    | Ok fd -> (
      match Sockets.read_exact ~deadline fd Frame.hello_size with
      | Error e -> failwith (Sockets.error_to_string e)
      | Ok bytes -> (
        match Frame.hello_of_string bytes with
        | Error why -> failwith why
        | Ok 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          log "client hello before the mesh was up; closed"
        | Ok node when node >= 1 && node < me ->
          if fds.(node - 1) <> None then
            failwith (Printf.sprintf "handshake: duplicate hello from p%d" node);
          fds.(node - 1) <- Some fd;
          decr expected;
          log (Printf.sprintf "accepted p%d" node)
        | Ok node -> failwith (Printf.sprintf "handshake: bad hello node %d" node)))
  done;
  fds

module Make (A : Binding.ALGO) = struct
  type item = Data_item of A.msg | Ctl_item

  type inbox = {
    from : int;
    decoder : Frame.decoder;
    mutable gone : bool;  (* corrupt or undecodable: never read again *)
    mutable stash : (int * item) list;
        (* frames for rounds not opened yet, newest first *)
  }

  type t = {
    me : int;
    kill : Script.kill option;
    log : string -> unit;
    inboxes : inbox array;
    mutable state : A.state;
    mutable data : (Pid.t * A.msg) list;
    mutable syncs : Pid.t list;
  }

  let create ~n ~t ~me ~proposal ~kill ~log =
    {
      me;
      kill;
      log;
      inboxes =
        Array.init n (fun i ->
            { from = i + 1; decoder = Frame.decoder (); gone = false; stash = [] });
      state = A.init ~n ~t ~me:(Pid.of_int me) ~proposal;
      data = [];
      syncs = [];
    }

  let inbox p ~from = p.inboxes.(from - 1).decoder

  let send p ~round ~write =
    let data = A.data_sends p.state ~round in
    let ctl = A.sync_sends p.state ~round in
    let writes =
      List.map
        (fun (dest, msg) ->
          ( Pid.to_int dest,
            Frame.encode
              (Frame.Data { instance = 0; round; payload = A.encode_msg msg })
          ))
        data
      @ List.map
          (fun dest ->
            (Pid.to_int dest, Frame.encode (Frame.Ctl { instance = 0; round })))
          ctl
    in
    let budget =
      match p.kill with
      | Some k when k.Script.round = round ->
        Some
          (Script.writes_completed k.Script.phase ~data:(List.length data)
             ~ctl:(List.length ctl))
      | Some _ | None -> None
    in
    let rec emit k = function
      | [] -> ()
      | (dest, bytes) :: rest ->
        if budget <> Some k then begin
          (* self-delivery shares the wire path: same frames, own decoder *)
          if dest = p.me then Frame.feed_string (inbox p ~from:dest) bytes
          else write dest bytes;
          emit (k + 1) rest
        end
    in
    emit 0 writes;
    match budget with Some _ -> `Halted | None -> `Sent

  let give_up p ib why =
    ib.gone <- true;
    p.log (Printf.sprintf "peer p%d gone: %s" ib.from why)

  let consume p ib = function
    | Data_item m -> p.data <- (Pid.of_int ib.from, m) :: p.data
    | Ctl_item -> p.syncs <- Pid.of_int ib.from :: p.syncs

  (* A frame for [round] is kept, one for a later round is stashed, one for
     an earlier round is logged and dropped. *)
  let file p ib ~round ~fr what it =
    if fr = round then consume p ib it
    else if fr > round then ib.stash <- (fr, it) :: ib.stash
    else p.log (Printf.sprintf "late %s frame (r%d) from p%d" what fr ib.from)

  let rec drain p ib ~round =
    match Frame.pop_view ib.decoder with
    | `Need_more -> ()
    | `Corrupt why -> give_up p ib ("corrupt stream: " ^ why)
    | `View v -> (
      match v.Frame.kind with
      | Frame.K_data -> (
        match A.decode_msg_view v with
        | Ok m ->
          file p ib ~round ~fr:v.Frame.round "data" (Data_item m);
          drain p ib ~round
        | Error why -> give_up p ib ("bad payload: " ^ why))
      | Frame.K_ctl ->
        file p ib ~round ~fr:v.Frame.round "ctl" Ctl_item;
        drain p ib ~round
      | Frame.K_hello | Frame.K_submit | Frame.K_decide | Frame.K_catchup ->
        drain p ib ~round)

  let receive p ~round =
    let gone = ref [] in
    Array.iter
      (fun ib ->
        (* first what a fast peer delivered while we were still in an
           earlier round, then whatever its stream now holds *)
        (match ib.stash with
        | [] -> ()
        | stash ->
          let mine, rest =
            List.partition (fun (fr, _) -> fr = round) (List.rev stash)
          in
          ib.stash <- List.rev rest;
          List.iter (fun (_, it) -> consume p ib it) mine);
        if not ib.gone then begin
          drain p ib ~round;
          if ib.gone then gone := ib.from :: !gone
        end)
      p.inboxes;
    !gone

  let compute p ~round =
    let data = List.sort (fun (a, _) (b, _) -> Pid.compare a b) p.data in
    let syncs = List.sort Pid.compare p.syncs in
    p.data <- [];
    p.syncs <- [];
    let state, decision = A.compute p.state ~round ~data ~syncs in
    p.state <- state;
    (List.length data, List.length syncs, decision)

  let establish (cfg : config) ~log =
    let lfd =
      match Sockets.listen (Sockets.addr_of ~transport:cfg.transport cfg.me) with
      | Ok fd -> fd
      | Error e -> failwith ("listen: " ^ Sockets.error_to_string e)
    in
    let fds =
      handshake ~deadline:(Sockets.now () +. handshake_timeout) ~me:cfg.me
        ~n:cfg.n ~addr:(Sockets.addr_of ~transport:cfg.transport) ~log lfd
    in
    Unix.close lfd;
    fds

  let wait_go (cfg : config) =
    match input_line cfg.go with
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "go"; t0 ] -> (
        match float_of_string_opt t0 with
        | Some t0 -> t0
        | None -> failwith ("bad go line: " ^ line))
      | _ -> failwith ("bad go line: " ^ line))
    | exception End_of_file -> failwith "supervisor vanished before go"

  let main (cfg : config) =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let logf fmt = Children.logf cfg.log ~me:cfg.me fmt in
    let log = logf "%s" in
    let p =
      create ~n:cfg.n ~t:cfg.t ~me:cfg.me ~proposal:cfg.proposal ~kill:cfg.kill
        ~log
    in
    let fds = establish cfg ~log in
    Array.iter (Option.iter Unix.set_nonblock) fds;
    let close_fd from =
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds.(from - 1);
      fds.(from - 1) <- None
    in
    let mark_dead from why =
      if fds.(from - 1) <> None then begin
        logf "peer p%d gone: %s" from why;
        close_fd from
      end
    in
    Children.status_event cfg.status
      [ ("event", Obs.Json.String "ready"); ("node", Obs.Json.Int cfg.me) ];
    let t0 = wait_go cfg in
    logf "go: t0 in %.3f s" (t0 -. Sockets.now ());
    let buf = Bytes.create 65536 in
    (* Read whatever the open links hold into their inboxes until the
       round's receive window closes, consuming every complete frame. *)
    let rec collect ~round ~close =
      List.iter close_fd (receive p ~round);
      let dt = close -. Sockets.now () in
      if dt > 0.0 then begin
        let open_fds = Array.to_list fds |> List.filter_map Fun.id in
        (match Unix.select open_fds [] [] dt with
        | [], _, _ -> ()
        | ready, _, _ ->
          Array.iteri
            (fun i fd ->
              match fd with
              | Some fd when List.memq fd ready -> (
                match Sockets.read_chunk fd buf with
                | `Data k ->
                  Frame.feed (inbox p ~from:(i + 1))
                    (Bytes.unsafe_to_string buf) ~pos:0 ~len:k
                | `Closed -> mark_dead (i + 1) "eof"
                | `Nothing -> ())
              | _ -> ())
            fds
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        collect ~round ~close
      end
    in
    let decided = ref false in
    let r = ref 1 in
    while (not !decided) && !r <= cfg.max_rounds do
      let round = !r in
      let open_t = t0 +. (float_of_int (round - 1) *. (cfg.big_d +. cfg.delta)) in
      let close_t = open_t +. cfg.big_d in
      Sockets.sleep_until open_t;
      let open_skew = Sockets.now () -. open_t in
      let deadline = Sockets.now () +. cfg.big_d in
      let write dest bytes =
        match fds.(dest - 1) with
        | None -> ()
        | Some fd -> (
          match Sockets.write_all ~deadline fd bytes with
          | Ok () -> ()
          | Error e -> mark_dead dest (Sockets.error_to_string e))
      in
      (match send p ~round ~write with
      | `Sent -> ()
      | `Halted ->
        log "scripted kill point reached: stopping for the supervisor";
        Children.stop_for_kill ());
      collect ~round ~close:close_t;
      let close_skew = Sockets.now () -. close_t in
      let data_recv, ctl_recv, decision = compute p ~round in
      Children.status_event cfg.status
        [
          ("event", Obs.Json.String "round");
          ("node", Obs.Json.Int cfg.me);
          ("round", Obs.Json.Int round);
          ("open_skew", Obs.Json.Float open_skew);
          ("close_skew", Obs.Json.Float close_skew);
          ("data_recv", Obs.Json.Int data_recv);
          ("ctl_recv", Obs.Json.Int ctl_recv);
        ];
      (match decision with
      | Some value ->
        decided := true;
        logf "decided %d in round %d" value round;
        Children.status_event cfg.status
          [
            ("event", Obs.Json.String "decide");
            ("node", Obs.Json.Int cfg.me);
            ("value", Obs.Json.Int value);
            ("round", Obs.Json.Int round);
          ]
      | None -> ());
      incr r
    done;
    if not !decided then begin
      logf "round horizon reached without deciding";
      Children.status_event cfg.status
        [ ("event", Obs.Json.String "undecided"); ("node", Obs.Json.Int cfg.me) ]
    end;
    Array.iteri (fun i _ -> mark_dead (i + 1) "shutdown") fds
end

module Rwwc = Make (Binding.Rwwc)

module P = Protocol
module J = Obs.Json

type config = {
  job : P.job;
  addr : Unix.sockaddr;
  lease_timeout : float;
  checkpoint : string option;
  linger : float;
  min_workers : int;
  verbose : bool;
}

let config ?(lease_timeout = 5.0) ?checkpoint ?(linger = 0.5)
    ?(min_workers = 0) ?(verbose = false) ~addr job =
  { job; addr; lease_timeout; checkpoint; linger; min_workers; verbose }

type report = {
  classes : int;
  violations : P.violation list;
  violations_total : int;
  shards_total : int;
  executed : int list;
  resumed : int list;
  regrants : int;
  duplicates : int;
}

let report_to_json r =
  J.Obj
    [
      ("classes", J.Int r.classes);
      ( "violations",
        J.List
          (List.map
             (fun (v : P.violation) ->
               J.Obj
                 [
                   ("schedule", Minimize.Repro.schedule_to_json v.P.schedule);
                   ("property", J.String v.P.property);
                   ("detail", J.String v.P.detail);
                 ])
             r.violations) );
      ("violations_total", J.Int r.violations_total);
      ("shards_total", J.Int r.shards_total);
      ("executed", J.List (List.map (fun s -> J.Int s) r.executed));
      ("resumed", J.List (List.map (fun s -> J.Int s) r.resumed));
      ("regrants", J.Int r.regrants);
      ("duplicates", J.Int r.duplicates);
    ]

type client = {
  conn : P.conn;
  mutable worker : string;
  mutable leased : int option;
  mutable last_seen : float;
}

type state = {
  cfg : config;
  done_ : (int, P.shard_result) Hashtbl.t;
  pending : int Queue.t;
  mutable clients : client list;
  mutable executed : int list;
  resumed : int list;
  mutable regrants : int;
  mutable duplicates : int;
  mutable hellos : int;
      (* workers ever seen; gates granting until min_workers showed up, so
         small sweeps cannot be swallowed whole by the first arrival *)
}

let logf st fmt =
  Printf.ksprintf
    (fun s ->
      if st.cfg.verbose then begin
        Printf.eprintf "[coordinator] %s\n" s;
        flush stderr
      end)
    fmt

let complete st = Hashtbl.length st.done_ >= st.cfg.job.P.shards

let save_checkpoint st =
  match st.cfg.checkpoint with
  | None -> ()
  | Some file ->
    let results =
      Hashtbl.fold (fun _ r acc -> r :: acc) st.done_ []
      |> List.sort (fun a b -> compare a.P.shard b.P.shard)
    in
    Checkpoint.save ~file { Checkpoint.job = st.cfg.job; results }

(* Revoke a client's lease (if any) and put the shard back in the queue.
   Used for both silent-lease expiry and disconnects. *)
let revoke st client why =
  match client.leased with
  | None -> ()
  | Some shard ->
    client.leased <- None;
    if not (Hashtbl.mem st.done_ shard) then begin
      st.regrants <- st.regrants + 1;
      Queue.push shard st.pending;
      logf st "lease on shard %d revoked (%s, worker %s); re-queued" shard why
        client.worker
    end

let drop st client why =
  revoke st client why;
  P.close client.conn;
  st.clients <- List.filter (fun c -> c != client) st.clients

let send_or_drop st client msg =
  match P.send client.conn msg with
  | Ok () -> ()
  | Error why -> drop st client ("send failed: " ^ why)

let handle st client msg =
  client.last_seen <- Live.Sockets.now ();
  match msg with
  | P.Hello { worker } ->
    client.worker <- worker;
    st.hellos <- st.hellos + 1;
    send_or_drop st client (P.Job st.cfg.job)
  | P.Request ->
    if complete st then send_or_drop st client P.Done
    else if Queue.is_empty st.pending || st.hellos < st.cfg.min_workers then
      (* Everything is leased out (or the fleet hasn't fully arrived yet);
         the worker should poll again soon in case a lease times out and
         re-queues. *)
      send_or_drop st client
        (P.Wait { delay = Float.min 0.25 (st.cfg.lease_timeout /. 4.0) })
    else begin
      let shard = Queue.pop st.pending in
      client.leased <- Some shard;
      logf st "granted shard %d to %s" shard client.worker;
      send_or_drop st client (P.Grant { shard })
    end
  | P.Heartbeat { shard; checked } ->
    logf st "heartbeat from %s: shard %d, %d checked" client.worker shard
      checked
  | P.Result r ->
    if Hashtbl.mem st.done_ r.P.shard then begin
      (* First writer won; this is a replay or a revoked-lease straggler. *)
      st.duplicates <- st.duplicates + 1;
      logf st "duplicate result for shard %d from %s dropped" r.P.shard
        client.worker
    end
    else begin
      Hashtbl.replace st.done_ r.P.shard r;
      st.executed <- r.P.shard :: st.executed;
      (* Checkpoint before acknowledging: once the worker hears the ack it
         forgets the result, so the ack must imply durability. *)
      save_checkpoint st;
      logf st "shard %d done by %s (%d/%d)" r.P.shard client.worker
        (Hashtbl.length st.done_) st.cfg.job.P.shards
    end;
    (match client.leased with
    | Some s when s = r.P.shard -> client.leased <- None
    | Some _ | None -> ());
    send_or_drop st client (P.Ack { shard = r.P.shard });
    if complete st then
      List.iter (fun c -> send_or_drop st c P.Done) st.clients
  | P.Job _ | P.Grant _ | P.Wait _ | P.Ack _ | P.Done ->
    logf st "ignoring unexpected %s message from %s"
      (Format.asprintf "%a" P.pp_msg msg)
      client.worker

let pump st client =
  match P.read_available client.conn with
  | `Closed why -> drop st client why
  | `Ready ->
    let rec drain () =
      if List.memq client st.clients then
        match P.pop client.conn with
        | `Msg msg ->
          handle st client msg;
          drain ()
        | `None -> ()
        | `Closed why -> drop st client why
    in
    drain ()

let expire_leases st =
  let now = Live.Sockets.now () in
  List.iter
    (fun c ->
      match c.leased with
      | Some _ when now -. c.last_seen > st.cfg.lease_timeout ->
        revoke st c "heartbeat timeout"
      | Some _ | None -> ())
    st.clients

let finish st =
  let results =
    Hashtbl.fold (fun _ r acc -> r :: acc) st.done_ []
    |> List.sort (fun a b -> compare a.P.shard b.P.shard)
  in
  let classes = List.fold_left (fun acc r -> acc + r.P.classes) 0 results in
  let violations_total =
    List.fold_left (fun acc r -> acc + r.P.violations_total) 0 results
  in
  let violations =
    List.concat_map (fun r -> r.P.violations) results
    |> List.sort (fun (a : P.violation) (b : P.violation) ->
           Adversary.Canonical.compare a.P.schedule b.P.schedule)
  in
  {
    classes;
    violations;
    violations_total;
    shards_total = st.cfg.job.P.shards;
    executed = List.sort compare st.executed;
    resumed = st.resumed;
    regrants = st.regrants;
    duplicates = st.duplicates;
  }

let serve cfg =
  let ( let* ) = Result.bind in
  let* resumed_results =
    match cfg.checkpoint with
    | None -> Ok []
    | Some file -> (
      match Checkpoint.load_if_exists file with
      | Error why -> Error ("checkpoint: " ^ why)
      | Ok None -> Ok []
      | Ok (Some c) ->
        if P.job_equal c.Checkpoint.job cfg.job then Ok c.Checkpoint.results
        else
          Error
            (Format.asprintf
               "checkpoint %s records a different job (%a, expected %a)" file
               P.pp_job c.Checkpoint.job P.pp_job cfg.job))
  in
  let* lfd =
    match Live.Sockets.listen cfg.addr with
    | Ok fd -> Ok fd
    | Error e -> Error ("listen: " ^ Live.Sockets.error_to_string e)
  in
  let st =
    {
      cfg;
      done_ = Hashtbl.create 64;
      pending = Queue.create ();
      clients = [];
      executed = [];
      resumed =
        List.sort compare (List.map (fun r -> r.P.shard) resumed_results);
      regrants = 0;
      duplicates = 0;
      hellos = 0;
    }
  in
  List.iter (fun r -> Hashtbl.replace st.done_ r.P.shard r) resumed_results;
  for shard = 0 to cfg.job.P.shards - 1 do
    if not (Hashtbl.mem st.done_ shard) then Queue.push shard st.pending
  done;
  if st.resumed <> [] then
    logf st "resumed %d finished shards from the checkpoint"
      (List.length st.resumed);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let accept () =
    match Unix.accept lfd with
    | fd, _ ->
      Unix.set_close_on_exec fd;
      Unix.set_nonblock fd;
      st.clients <-
        {
          conn = P.conn fd;
          worker = "?";
          leased = None;
          last_seen = Live.Sockets.now ();
        }
        :: st.clients
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  let step timeout =
    let fds = lfd :: List.map (fun c -> P.fd c.conn) st.clients in
    match Unix.select fds [] [] timeout with
    | ready, _, _ ->
      if List.memq lfd ready then accept ();
      List.iter
        (fun c -> if List.memq (P.fd c.conn) ready then pump st c)
        (* pump can drop clients: iterate over a snapshot *)
        (List.filter (fun c -> List.memq (P.fd c.conn) ready) st.clients)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while not (complete st) do
    expire_leases st;
    step 0.2
  done;
  (* Completion already broadcast Done to everyone connected at that
     moment; linger briefly so stragglers that reconnect or request again
     hear it too instead of dying on a vanished address.  Workers hang up
     once they hear Done, so an empty client list ends the linger early. *)
  let linger_until = Live.Sockets.now () +. cfg.linger in
  while Live.Sockets.now () < linger_until && st.clients <> [] do
    step 0.05
  done;
  List.iter (fun c -> P.close c.conn) st.clients;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match cfg.addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ());
  Ok (finish st)

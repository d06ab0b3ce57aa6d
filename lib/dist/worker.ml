module P = Protocol

type chaos = { die_on_grant : int option; die_after_schedules : int option }

let no_chaos = { die_on_grant = None; die_after_schedules = None }

(* Chaos exits use a recognizable code so fleet reaping can tell a scripted
   death from a genuine worker failure. *)
let chaos_exit_code = 17

let name_of_pid pid = Printf.sprintf "w%d" pid

type state = {
  name : string;
  patience : float;
  chaos : chaos;
  verbose : bool;
  addr : Unix.sockaddr;
  mutable job : P.job option;
  mutable unsent : P.shard_result list;  (* produced but never acknowledged *)
  mutable completed : int;
  mutable grants : int;
  mutable checked_total : int;
}

let logf st fmt =
  Printf.ksprintf
    (fun s ->
      if st.verbose then begin
        Printf.eprintf "[worker %s] %s\n" st.name s;
        flush stderr
      end)
    fmt

(* Fold one residue-class slice of the registry's space through the
   algorithm's verdict.  Heartbeats flow on a timer; their failures are
   deliberately ignored — the broken connection will surface when the
   result is sent, and the result is what matters. *)
let run_shard st conn (job : P.job) ~shard =
  match Minimize.Algo.find job.P.algo with
  | Error why -> Error why
  | Ok algo ->
    let n = job.P.n in
    let t = max 1 (n - 2) in
    let verdict = Minimize.Algo.verdict algo ~n ~t in
    let classes = ref 0 in
    let violations = ref [] in
    let next_hb = ref (Live.Sockets.now () +. job.P.heartbeat_every) in
    Seq.iter
      (fun schedule ->
        (match st.chaos.die_after_schedules with
        | Some k when st.checked_total >= k ->
          logf st "chaos: dying mid-shard after %d schedules" k;
          Unix._exit chaos_exit_code
        | Some _ | None -> ());
        if Live.Sockets.now () >= !next_hb then begin
          ignore (P.send conn (P.Heartbeat { shard; checked = !classes }));
          next_hb := Live.Sockets.now () +. job.P.heartbeat_every
        end;
        incr classes;
        st.checked_total <- st.checked_total + 1;
        match verdict schedule with
        | [] -> ()
        | c :: _ ->
          violations :=
            {
              P.schedule;
              property = c.Spec.Properties.name;
              detail = c.Spec.Properties.detail;
            }
            :: !violations)
      (Adversary.Enumerate.shard ~shards:job.P.shards ~shard
         (Minimize.Algo.space algo ~symmetry:job.P.symmetry ~n ~t
            ~max_f:job.P.max_f ~max_round:job.P.max_round));
    let violations = List.rev !violations in
    Ok
      {
        P.shard;
        classes = !classes;
        violations = P.cap_violations violations;
        violations_total = List.length violations;
        worker = st.name;
      }

let sleep_for delay = Live.Sockets.sleep_until (Live.Sockets.now () +. delay)

(* Await the coordinator's ack for [shard], letting unrelated messages pass. *)
let rec await_ack conn ~shard =
  match P.recv ~deadline:(Live.Sockets.now () +. 30.0) conn with
  | `Msg (P.Ack { shard = s }) when s = shard -> `Acked
  | `Msg P.Done -> `Done
  | `Msg _ -> await_ack conn ~shard
  | `Timeout -> `Lost "ack timeout"
  | `Closed why -> `Lost why

let deliver st conn result =
  match P.send conn (P.Result result) with
  | Error why -> `Lost why
  | Ok () -> (
    match await_ack conn ~shard:result.P.shard with
    | `Acked ->
      st.unsent <- List.filter (fun r -> r != result) st.unsent;
      st.completed <- st.completed + 1;
      `Acked
    | `Done ->
      (* The sweep completed without this result: someone else's copy of the
         shard won the first-writer race.  Nothing left to deliver. *)
      st.unsent <- [];
      `Done
    | `Lost why -> `Lost why)

let run ?(patience = 30.0) ?(chaos = no_chaos) ?(verbose = false) ~addr () =
  let st =
    {
      name = name_of_pid (Unix.getpid ());
      patience;
      chaos;
      verbose;
      addr;
      job = None;
      unsent = [];
      completed = 0;
      grants = 0;
      checked_total = 0;
    }
  in
  let handshake conn =
    match P.send conn (P.Hello { worker = st.name }) with
    | Error why -> `Lost why
    | Ok () -> (
      match P.recv ~deadline:(Live.Sockets.now () +. 15.0) conn with
      | `Msg (P.Job job) -> (
        match st.job with
        | Some old when not (P.job_equal old job) ->
          `Fatal "coordinator came back with a different job"
        | Some _ | None ->
          st.job <- Some job;
          `Job job)
      | `Msg m ->
        `Lost (Format.asprintf "expected a job, got %a" P.pp_msg m)
      | `Timeout -> `Lost "no job before the handshake deadline"
      | `Closed why -> `Lost why)
  in
  let rec replay_unsent conn = function
    | [] -> `Caught_up
    | r :: rest -> (
      logf st "replaying unacknowledged result for shard %d" r.P.shard;
      match deliver st conn r with
      | `Acked -> replay_unsent conn rest
      | (`Done | `Lost _) as out -> out)
  in
  (* A completion broadcast can already sit in the socket buffer (sent
     while we slept on a Wait) — and it stays readable even after the
     coordinator exits.  Honoring it before the next Request is what lets
     a whole fleet shut down cleanly instead of burning reconnect patience
     against a vanished address. *)
  let buffered_done conn =
    let rec pops () =
      match P.pop conn with
      | `Msg P.Done -> `Done
      | `Msg _ -> pops ()
      | `None -> `None
      | `Closed why -> `Closed why
    in
    match P.read_available conn with
    | `Ready -> pops ()
    | `Closed why -> (
      match pops () with
      | `Done -> `Done
      | `None | `Closed _ -> `Closed why)
  in
  let rec serve conn job =
    match buffered_done conn with
    | `Done -> `Done
    | `Closed why -> `Lost why
    | `None -> request conn job
  and request conn job =
    match P.send conn P.Request with
    | Error why -> `Lost why
    | Ok () -> (
      match P.recv ~deadline:(Live.Sockets.now () +. 60.0) conn with
      | `Msg (P.Grant { shard }) -> (
        st.grants <- st.grants + 1;
        (match st.chaos.die_on_grant with
        | Some k when st.grants >= k ->
          logf st "chaos: dying on grant #%d holding shard %d" st.grants shard;
          Unix._exit chaos_exit_code
        | Some _ | None -> ());
        logf st "leased shard %d" shard;
        match run_shard st conn job ~shard with
        | Error why -> `Fatal why
        | Ok result -> (
          st.unsent <- st.unsent @ [ result ];
          match deliver st conn result with
          | `Acked -> serve conn job
          | `Done -> `Done
          | `Lost why -> `Lost why))
      | `Msg (P.Wait { delay }) ->
        sleep_for (Float.min (Float.max delay 0.01) 5.0);
        serve conn job
      | `Msg P.Done -> `Done
      | `Msg _ -> serve conn job
      | `Timeout -> `Lost "coordinator unresponsive"
      | `Closed why -> `Lost why)
  in
  let rec session attempt =
    match
      Live.Sockets.connect_retry
        ~deadline:(Live.Sockets.now () +. st.patience)
        st.addr
    with
    | Error e ->
      Error
        (Printf.sprintf "could not reach the coordinator: %s"
           (Live.Sockets.error_to_string e))
    | Ok fd -> (
      Unix.set_nonblock fd;
      let conn = P.conn fd in
      let outcome =
        match handshake conn with
        | `Fatal why -> `Fatal why
        | `Lost why -> `Lost why
        | `Job job -> (
          match replay_unsent conn st.unsent with
          | `Caught_up -> serve conn job
          | (`Done | `Lost _ | `Fatal _) as out -> out)
      in
      P.close conn;
      match outcome with
      | `Done ->
        logf st "done: %d shards completed" st.completed;
        Ok st.completed
      | `Fatal why -> Error why
      | `Lost why ->
        logf st "connection lost (%s); reconnecting (attempt %d)" why attempt;
        session (attempt + 1))
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  session 1

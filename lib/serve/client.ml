type load = Count of int | Until of float

type config = {
  n : int;
  transport : [ `Unix of string | `Tcp of int ];
  first : int;
  load : load;
  window : int;
  proposals : int -> int -> int;
  timeout : float;  (** overall wall-clock budget, seconds *)
  reconnect : bool;  (** re-dial dead engines with jittered backoff *)
}

type settled = {
  instance : int;
  submitted : float;
  at : float;
  row : (int * int) option array;
}

type outcome = {
  decisions : (int * int) option array array;
  latencies : float list;
  elapsed : float;
  undecided : int list;
  dead_nodes : int list;
  reconnects : int;
}

type node = {
  pid : int;
  mutable fd : Unix.file_descr option;
  mutable decoder : Live.Frame.decoder;
  mutable attempts : int;  (* reconnect attempts since the last success *)
  mutable next_try : float;  (* infinity = no reconnect pending *)
  mutable unanswered : bool;  (* re-dialed, and no frame back on it yet *)
}

(* One in-flight instance.  [waiting] has bit [p - 1] set while node [p]
   was sent the Submit on its current connection and has not answered;
   reaching zero *is* settlement — no rescans, O(1) per Decide.  A Decide
   from a node not waiting on the instance is not its answer: an engine
   broadcasts every decision to every client, including decisions it
   adopted from its peers while it was down. *)
type flight = {
  t0 : float;
  row : (int * int) option array;  (* per node, first report wins *)
  mutable waiting : int;
}

let connect_timeout = 10.0
let send_timeout = 2.0
let reconnect_budget = 10
let reconnect_backoff = 0.05
let reconnect_backoff_max = 1.0

(* With an [on_idle] hook the loop wakes at least this often, so the
   fleet's status pipes and due respawns are serviced mid-storm. *)
let idle_tick = 0.05

let run ?on_idle ?on_settle cfg =
  let count = match cfg.load with Count k -> k | Until _ -> 0 in
  if cfg.n < 2 then Error "serve client: need n >= 2"
  else if cfg.n > Sys.int_size then
    Error (Printf.sprintf "serve client: need n <= %d" Sys.int_size)
  else if count < 0 then Error "serve client: negative instances"
  else if cfg.first < 0 then Error "serve client: negative first instance"
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let nodes =
      Array.init cfg.n (fun i ->
          {
            pid = i + 1;
            fd = None;
            decoder = Live.Frame.decoder ();
            attempts = 0;
            next_try = infinity;
            unanswered = false;
          })
    in
    let jitter = Prng.Rng.of_int 0x5eed in
    let ev = Evloop.create () in
    let bit node = 1 lsl (node.pid - 1) in
    let live = ref 0 in  (* bit set per connected node *)
    (* Connect, say Hello as a client (node 0), and watch the socket. *)
    let dial node ~deadline =
      match
        Live.Node.dial_hello ~deadline ~me:0
          (Live.Sockets.addr_of ~transport:cfg.transport node.pid)
      with
      | Error why -> Error (Printf.sprintf "p%d: %s" node.pid why)
      | Ok fd ->
        Unix.set_nonblock fd;
        Evloop.register ev fd ~read:true ~write:false;
        node.fd <- Some fd;
        live := !live lor bit node;
        Ok ()
    in
    let deadline = Live.Sockets.now () +. connect_timeout in
    let connect_err = ref None in
    Array.iter
      (fun node ->
        if !connect_err = None then
          match dial node ~deadline with
          | Ok () -> ()
          | Error e -> connect_err := Some e)
      nodes;
    let close_all () =
      Array.iter
        (fun node ->
          Option.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            node.fd;
          node.fd <- None)
        nodes
    in
    match !connect_err with
    | Some e ->
      close_all ();
      Error e
    | None ->
      let window = max 1 cfg.window in
      (* A counted run keeps every instance's row for the outcome; a
         stream keeps only its in-flight rows, so its state is
         O(window). *)
      let decisions = Array.init count (fun _ -> Array.make cfg.n None) in
      let inflight : (int, flight) Hashtbl.t = Hashtbl.create 64 in
      let latencies = ref [] in
      let next_submit = ref 0 in
      let reconnects = ref 0 in
      let submitting () =
        match cfg.load with
        | Count k -> !next_submit < k
        | Until t -> Live.Sockets.now () < t
      in
      let settle idx f =
        Hashtbl.remove inflight idx;
        let at = Live.Sockets.now () in
        (match cfg.load with
        | Count _ -> latencies := (at -. f.t0) :: !latencies
        | Until _ -> ());
        match on_settle with
        | Some k ->
          k { instance = cfg.first + idx; submitted = f.t0; at; row = f.row }
        | None -> ()
      in
      let submit_frame idx node =
        let i = cfg.first + idx in
        Live.Frame.encode
          (Live.Frame.Submit { instance = i; proposal = cfg.proposals i node.pid })
      in
      (* One coalesced Submit burst per node per refill: the client-side
         mirror of the engines' per-peer batching. *)
      let submit_batch fresh =
        let per_node = Array.init cfg.n (fun _ -> Buffer.create 256) in
        List.iter
          (fun idx ->
            let row =
              match cfg.load with
              | Count _ -> decisions.(idx)
              | Until _ -> Array.make cfg.n None
            in
            Hashtbl.replace inflight idx
              { t0 = Live.Sockets.now (); row; waiting = !live };
            Array.iter
              (fun node ->
                if node.fd <> None then
                  Buffer.add_string per_node.(node.pid - 1) (submit_frame idx node))
              nodes)
          fresh;
        Array.iter
          (fun node ->
            match node.fd with
            | None -> ()
            | Some fd ->
              let wire = Buffer.contents per_node.(node.pid - 1) in
              if wire <> "" then
                ignore
                  (Live.Sockets.write_all
                     ~deadline:(Live.Sockets.now () +. send_timeout)
                     fd wire))
          nodes
      in
      (* Pipelined streaming: called the moment settlements free window
         slots, not once per tick.  Nothing is submitted while every node
         is down — a stream would otherwise settle empty rows at once. *)
      let refill () =
        let avail =
          match cfg.load with
          | Count k -> k - !next_submit
          | Until t -> if Live.Sockets.now () < t then window else 0
        in
        let k = min avail (window - Hashtbl.length inflight) in
        if !live <> 0 && k > 0 then begin
          let fresh = List.init k (fun j -> !next_submit + j) in
          next_submit := !next_submit + k;
          submit_batch fresh
        end
      in
      (* The next re-dial of a dead node, under a jittered exponential
         backoff; after [reconnect_budget] failed attempts it stays dead. *)
      let schedule_retry node =
        if node.attempts < reconnect_budget then begin
          let backoff =
            Float.min reconnect_backoff_max
              (reconnect_backoff *. (2.0 ** float_of_int node.attempts))
          in
          node.next_try <-
            Live.Sockets.now () +. Live.Sockets.retry_wait ~jitter backoff
        end
      in
      (* A node death un-blocks every instance waiting only on it — and,
         with [reconnect], schedules a re-dial. *)
      let mark_dead node =
        match node.fd with
        | None -> ()
        | Some fd ->
          Evloop.deregister ev fd;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          node.fd <- None;
          live := !live land lnot (bit node);
          if cfg.reconnect then schedule_retry node;
          let freed =
            Hashtbl.fold
              (fun idx f acc ->
                if f.waiting land bit node = 0 then acc
                else begin
                  f.waiting <- f.waiting land lnot (bit node);
                  if f.waiting = 0 then (idx, f) :: acc else acc
                end)
              inflight []
          in
          List.iter (fun (idx, f) -> settle idx f) freed
      in
      let try_reconnects () =
        Array.iter
          (fun node ->
            if node.fd = None && Live.Sockets.now () >= node.next_try then begin
              node.next_try <- infinity;
              match dial node ~deadline:(Live.Sockets.now () +. 0.2) with
              | Error _ ->
                node.attempts <- node.attempts + 1;
                schedule_retry node
              | Ok () ->
                node.decoder <- Live.Frame.decoder ();
                node.attempts <- 0;
                node.unanswered <- true
            end)
          nodes
      in
      let drain node =
        let rec go () =
          match Live.Frame.pop_view node.decoder with
          | `View v ->
            (* A rejoining engine refuses a client by closing unread, so
               a re-dial counts once the engine answers on it. *)
            if node.unanswered then begin
              node.unanswered <- false;
              incr reconnects
            end;
            (match v.Live.Frame.kind with
            | Live.Frame.K_decide -> (
              let idx = v.Live.Frame.instance - cfg.first in
              match Hashtbl.find_opt inflight idx with
              | Some f when f.waiting land bit node <> 0 ->
                f.row.(node.pid - 1) <-
                  Some (v.Live.Frame.value, v.Live.Frame.round);
                f.waiting <- f.waiting land lnot (bit node);
                if f.waiting = 0 then settle idx f
              | Some _ | None -> ())
            | _ -> ());
            go ()
          | `Need_more -> ()
          | `Corrupt _ -> mark_dead node
        in
        go ()
      in
      let buf = Bytes.create 65536 in
      let handle fd ~readable ~writable:_ =
        match Array.find_opt (fun node -> node.fd = Some fd) nodes with
        | Some node when readable -> (
          match Live.Sockets.read_chunk fd buf with
          | `Data k ->
            Live.Frame.feed node.decoder (Bytes.unsafe_to_string buf) ~pos:0
              ~len:k;
            drain node
          | `Closed -> mark_dead node
          | `Nothing -> ())
        | Some _ | None -> ()
      in
      let started = Live.Sockets.now () in
      let wall_deadline = started +. cfg.timeout in
      let tick = if on_idle = None then 1.0 else idle_tick in
      refill ();
      while
        (submitting () || Hashtbl.length inflight > 0)
        && Live.Sockets.now () < wall_deadline
        && Array.exists
             (fun node -> node.fd <> None || node.next_try < infinity)
             nodes
      do
        (* Sleep until data, the next reconnect attempt, the end of a
           stream's submissions, or the wall deadline — no fixed tick, so
           a Decide settles (and refills) the instant it arrives. *)
        let timeout =
          let now = Live.Sockets.now () in
          let wake =
            match cfg.load with
            | Until t when t > now -> Float.min wall_deadline t
            | Until _ | Count _ -> wall_deadline
          in
          let wake =
            Array.fold_left (fun acc node -> Float.min acc node.next_try) wake
              nodes
          in
          Float.min tick (Float.max 0.0 (wake -. now))
        in
        ignore (Evloop.wait ev ~timeout ~handle);
        try_reconnects ();
        refill ();
        match on_idle with Some f -> f () | None -> ()
      done;
      let elapsed = Live.Sockets.now () -. started in
      let undecided =
        List.sort compare
          (Hashtbl.fold (fun idx _ acc -> (cfg.first + idx) :: acc) inflight [])
        @ List.init
            (max 0 (count - !next_submit))
            (fun j -> cfg.first + !next_submit + j)
      in
      (* Nodes still down when the run closed: with [reconnect] these
         are exactly the ones that never came back (a revived node holds
         a live fd here). *)
      let dead_nodes =
        Array.to_list nodes
        |> List.filter_map (fun node ->
               if node.fd = None then Some node.pid else None)
      in
      close_all ();
      Ok
        {
          decisions;
          latencies = !latencies;
          elapsed;
          undecided;
          dead_nodes;
          reconnects = !reconnects;
        }
  end

(* Consensus-as-a-service: the instance slab, the multiplexer, the
   deterministic loopback storm engine, batching, and kill-mid-storm
   judging — socket fleet smoke lives at the bottom. *)

(* --- Slab ------------------------------------------------------------------- *)

let test_slab_basics () =
  let slab = Serve.Slab.create ~initial:2 () in
  let mk v () = ref v in
  let a = Serve.Slab.acquire slab ~instance:7 ~create:(mk 1) ~recycle:(fun r -> r := 1) in
  let b = Serve.Slab.acquire slab ~instance:9 ~create:(mk 2) ~recycle:(fun r -> r := 2) in
  Alcotest.(check int) "a" 1 !a;
  Alcotest.(check int) "b" 2 !b;
  Alcotest.(check int) "active" 2 (Serve.Slab.active slab);
  Alcotest.(check bool) "find 7" true (Serve.Slab.find slab ~instance:7 = Some a);
  Alcotest.(check bool) "find 8" true (Serve.Slab.find slab ~instance:8 = None);
  (match Serve.Slab.acquire slab ~instance:7 ~create:(mk 0) ~recycle:ignore with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double acquire accepted");
  Serve.Slab.release slab ~instance:7;
  Alcotest.(check bool) "released" true (Serve.Slab.find slab ~instance:7 = None);
  Alcotest.(check int) "active after release" 1 (Serve.Slab.active slab)

let test_slab_reuse_bounded () =
  (* Thousands of sequential instances must recycle a handful of slots:
     allocation is per concurrent instance, never per decision. *)
  let slab = Serve.Slab.create ~initial:4 () in
  for i = 0 to 4999 do
    let r =
      Serve.Slab.acquire slab ~instance:i
        ~create:(fun () -> ref 0)
        ~recycle:(fun r -> r := 0)
    in
    r := i;
    Serve.Slab.release slab ~instance:i
  done;
  Alcotest.(check int) "capacity stays 1" 1 (Serve.Slab.capacity slab);
  Alcotest.(check int) "reused" 4999 (Serve.Slab.reused slab);
  Alcotest.(check int) "nothing active" 0 (Serve.Slab.active slab)

let test_slab_iter_order () =
  let slab = Serve.Slab.create () in
  List.iter
    (fun i ->
      ignore
        (Serve.Slab.acquire slab ~instance:i
           ~create:(fun () -> ref i)
           ~recycle:(fun r -> r := i)))
    [ 30; 10; 20 ];
  Serve.Slab.release slab ~instance:10;
  let seen = ref [] in
  Serve.Slab.iter slab (fun id _ -> seen := id :: !seen);
  (* slot (allocation) order, not id order *)
  Alcotest.(check (list int)) "iter order" [ 30; 20 ] (List.rev !seen)

(* --- Bitvec ----------------------------------------------------------------- *)

let test_bitvec () =
  let bv = Serve.Bitvec.create () in
  Alcotest.(check bool) "empty" false (Serve.Bitvec.mem bv 0);
  Serve.Bitvec.set bv 0;
  Serve.Bitvec.set bv 7;
  Serve.Bitvec.set bv 100_000;
  Alcotest.(check bool) "0" true (Serve.Bitvec.mem bv 0);
  Alcotest.(check bool) "7" true (Serve.Bitvec.mem bv 7);
  Alcotest.(check bool) "8" false (Serve.Bitvec.mem bv 8);
  Alcotest.(check bool) "100000" true (Serve.Bitvec.mem bv 100_000);
  Alcotest.(check bool) "99999" false (Serve.Bitvec.mem bv 99_999)

(* --- Mux: frames arriving before the submit --------------------------------- *)

module M = Serve.Mux.Make (Serve.Binding.Rwwc)

let view_of_frame f =
  let d = Live.Frame.decoder () in
  Live.Frame.feed_string d (Live.Frame.encode f);
  match Live.Frame.pop_view d with
  | `View v -> v
  | _ -> Alcotest.fail "frame did not decode"

let test_mux_early_frames () =
  (* p2 in an n=3 mesh: round-1 coordinator traffic for instance 5 arrives
     before the local client submits it.  The mux parks the frames and the
     late submit still decides instantly. *)
  let emitted = ref [] in
  let mux =
    M.create
      { Serve.Mux.me = 2; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest f -> emitted := (dest, f) :: !emitted)
      ()
  in
  let payload = Serve.Binding.Rwwc.encode_msg (Core.Rwwc.Data 41) in
  M.on_view mux ~now:0.0 ~from:1
    (view_of_frame (Live.Frame.Data { instance = 5; round = 1; payload }));
  M.on_view mux ~now:0.0 ~from:1
    (view_of_frame (Live.Frame.Ctl { instance = 5; round = 1 }));
  Alcotest.(check int) "no decision yet" 0 (List.length !emitted);
  M.submit mux ~now:0.0 ~instance:5 ~proposal:99;
  (match !emitted with
  | [ (0, Live.Frame.Decide { instance = 5; value = 41; round = 1 }) ] -> ()
  | _ -> Alcotest.fail "expected exactly one Decide{i5,v41,r1} to the client");
  Alcotest.(check int) "slot released" 0 (M.active mux)

let test_mux_deadline_fallback () =
  (* No coordinator traffic at all: the round expires at the deadline and
     the instance advances to p2's own coordination round, which decides. *)
  let emitted = ref [] in
  let mux =
    M.create
      { Serve.Mux.me = 2; n = 3; t = 1; big_d = 0.5; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest f -> emitted := (dest, f) :: !emitted)
      ()
  in
  M.submit mux ~now:0.0 ~instance:0 ~proposal:17;
  Alcotest.(check (option (float 0.001))) "deadline pending" (Some 0.5)
    (M.next_deadline mux);
  M.expire mux ~now:0.1;
  Alcotest.(check int) "not yet" 1 (M.active mux);
  M.expire mux ~now:0.5;
  (* round 2: me = coordinator, sends data+ctl to p3 and decides *)
  let decides, mesh =
    List.partition (fun (d, _) -> d = 0) (List.rev !emitted)
  in
  (match decides with
  | [ (0, Live.Frame.Decide { instance = 0; value = 17; round = 2 }) ] -> ()
  | _ -> Alcotest.fail "expected own-round decide at r2");
  Alcotest.(check int) "mesh frames to p3" 2 (List.length mesh);
  Alcotest.(check int) "expired round counted" 1
    (M.stats mux).Serve.Stats.expired_rounds

let test_mux_resubmit_served_from_log () =
  (* Consensus as a service: once an instance decided, a re-submit (a
     reconnecting client) is answered from the decision log, not re-run. *)
  let emitted = ref [] in
  let mux =
    M.create
      { Serve.Mux.me = 2; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest f -> emitted := (dest, f) :: !emitted)
      ()
  in
  let payload = Serve.Binding.Rwwc.encode_msg (Core.Rwwc.Data 41) in
  M.on_view mux ~now:0.0 ~from:1
    (view_of_frame (Live.Frame.Data { instance = 5; round = 1; payload }));
  M.on_view mux ~now:0.0 ~from:1
    (view_of_frame (Live.Frame.Ctl { instance = 5; round = 1 }));
  M.submit mux ~now:0.0 ~instance:5 ~proposal:99;
  let first = !emitted in
  M.submit mux ~now:1.0 ~instance:5 ~proposal:77;
  (match (!emitted, first) with
  | ( (0, Live.Frame.Decide { instance = 5; value = 41; round = 1 }) :: _,
      [ (0, Live.Frame.Decide { instance = 5; value = 41; round = 1 }) ] ) ->
    ()
  | _ -> Alcotest.fail "re-submit must replay the identical Decide");
  Alcotest.(check int) "still no live slot" 0 (M.active mux);
  Alcotest.(check int) "decided exactly once" 1
    (M.stats mux).Serve.Stats.decides

(* --- Loopback storms --------------------------------------------------------- *)

let storm ?(n = 5) ?(t = 2) ?(window = 64) ?(batch = true) ?kill instances =
  Serve.Loopback.Rwwc.run
    {
      Serve.Loopback.Rwwc.n;
      t;
      instances;
      window;
      big_d = 0.25;
      batch;
      kill;
      max_rounds = None;
      proposals = (fun i node -> (i * n) + node);
    }

let test_loopback_storm_decides () =
  let r = storm 300 in
  Alcotest.(check bool) "ok" true r.Serve.Report.ok;
  Alcotest.(check int) "completed" 300 r.Serve.Report.completed;
  Alcotest.(check int) "undecided" 0 r.Serve.Report.undecided;
  (* No kill: every round completes at message speed. *)
  Alcotest.(check int) "no expired rounds" 0
    r.Serve.Report.total.Serve.Stats.expired_rounds;
  Alcotest.(check bool) "latency recorded" true
    (r.Serve.Report.latency <> None);
  List.iter
    (fun (node, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d slab bounded" node)
        true
        (s.Serve.Stats.slab_capacity <= 64 + 1))
    r.Serve.Report.stats

let test_loopback_deterministic () =
  let a = storm 120 and b = storm 120 in
  let obs (r : Serve.Report.t) =
    ( r.Serve.Report.completed,
      r.Serve.Report.undecided,
      r.Serve.Report.total.Serve.Stats.frames_out,
      r.Serve.Report.total.Serve.Stats.write_calls,
      r.Serve.Report.total.Serve.Stats.fast_rounds,
      r.Serve.Report.total.Serve.Stats.expired_rounds,
      match r.Serve.Report.latency with
      | Some l -> l.Serve.Report.p99
      | None -> -1.0 )
  in
  Alcotest.(check bool) "identical observables" true (obs a = obs b)

let test_loopback_batching_reduces_writes () =
  let batched = storm 200 ~batch:true in
  let unbatched = storm 200 ~batch:false in
  let writes (r : Serve.Report.t) = r.Serve.Report.total.Serve.Stats.write_calls in
  let frames (r : Serve.Report.t) = r.Serve.Report.total.Serve.Stats.frames_out in
  Alcotest.(check bool) "both pass" true
    (batched.Serve.Report.ok && unbatched.Serve.Report.ok);
  Alcotest.(check int) "same frames" (frames unbatched) (frames batched);
  Alcotest.(check bool)
    (Printf.sprintf "batching cuts write calls (%d < %d)" (writes batched)
       (writes unbatched))
    true
    (writes batched * 4 <= writes unbatched);
  Alcotest.(check bool) "unbatched is one write per frame" true
    (writes unbatched = frames unbatched);
  Alcotest.(check bool) "coalescing observed" true
    (batched.Serve.Report.total.Serve.Stats.max_batch > 1);
  (* Zero-copy flush: every batched flush hands its buffer to the send
     callback instead of materializing a [Buffer.contents] string. *)
  Alcotest.(check bool) "copies saved counted" true
    (batched.Serve.Report.total.Serve.Stats.copies_saved > 0)

let test_loopback_kill_mid_storm () =
  (* p1 dies 57 mesh writes into a 200-instance storm: 7 instances fully
     coordinated (8 frames each), the 8th caught after one data write. *)
  let r = storm 200 ~kill:{ Serve.Report.node = 1; after_frames = 57 } in
  Alcotest.(check bool) "ok" true r.Serve.Report.ok;
  Alcotest.(check int) "all settle for survivors" 200 r.Serve.Report.completed;
  Alcotest.(check bool) "rounds expired while p1 dead" true
    (r.Serve.Report.total.Serve.Stats.expired_rounds > 0);
  match List.assoc_opt 1 r.Serve.Report.stats with
  | None -> Alcotest.fail "no victim stats"
  | Some s -> Alcotest.(check int) "victim decided 7 instances" 7 s.Serve.Stats.decides

let test_loopback_kill_realized_phases () =
  (* Reach inside: the realized crash points must show the exact prefix
     semantics — instance 7 mid-data after 1 write, every other active
     instance before its round-1 send. *)
  let cfg =
    {
      Serve.Loopback.Rwwc.n = 5;
      t = 2;
      instances = 100;
      window = 32;
      big_d = 0.25;
      batch = true;
      kill = Some { Serve.Report.node = 1; after_frames = 57 };
      max_rounds = None;
      proposals = (fun i node -> (i * 5) + node);
    }
  in
  let r = Serve.Loopback.Rwwc.run cfg in
  Alcotest.(check bool) "ok" true r.Serve.Report.ok;
  Alcotest.(check bool) "no failures" true (r.Serve.Report.failures = [])

let test_loopback_no_kill_when_budget_unreached () =
  let r = storm 5 ~kill:{ Serve.Report.node = 2; after_frames = 10_000 } in
  Alcotest.(check bool) "ok" true r.Serve.Report.ok;
  Alcotest.(check int) "completed" 5 r.Serve.Report.completed

(* --- Evloop ------------------------------------------------------------------ *)

let wait_events ev ~timeout =
  let seen = ref [] in
  let n =
    Serve.Evloop.wait ev ~timeout ~handle:(fun fd ~readable ~writable ->
        seen := (fd, readable, writable) :: !seen)
  in
  (n, !seen)

let test_evloop_poll () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let ev = Serve.Evloop.create () in
  Serve.Evloop.register ev a ~read:true ~write:false;
  Alcotest.(check int) "registered" 1 (Serve.Evloop.registered ev);
  let n, _ = wait_events ev ~timeout:0.0 in
  Alcotest.(check int) "quiet" 0 n;
  ignore (Unix.write b (Bytes.of_string "x") 0 1);
  let n, seen = wait_events ev ~timeout:1.0 in
  Alcotest.(check int) "one ready" 1 n;
  (match seen with
  | [ (fd, true, false) ] when fd = a -> ()
  | _ -> Alcotest.fail "expected a readable, not writable");
  (* write interest: a fresh socket is writable immediately; readable
     state must be reported in the same callback *)
  Serve.Evloop.register ev a ~read:true ~write:true;
  let _, seen = wait_events ev ~timeout:1.0 in
  (match seen with
  | [ (fd, true, true) ] when fd = a -> ()
  | _ -> Alcotest.fail "expected a readable and writable");
  Serve.Evloop.deregister ev a;
  Alcotest.(check int) "deregistered" 0 (Serve.Evloop.registered ev);
  let n, _ = wait_events ev ~timeout:0.0 in
  Alcotest.(check int) "nothing watched" 0 n;
  Unix.close a;
  Unix.close b

(* poll flags a hang-up whatever the interest; the loop must only ever
   see the directions it registered for. *)
let test_evloop_hangup_masked () =
  let expect ~read ~write =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock a;
    Unix.close b;
    let ev = Serve.Evloop.create () in
    Serve.Evloop.register ev a ~read ~write;
    let n, seen = wait_events ev ~timeout:0.05 in
    Unix.close a;
    let label = Printf.sprintf "hang-up, read=%b write=%b" read write in
    if read || write then begin
      Alcotest.(check int) (label ^ ": one ready") 1 n;
      match seen with
      | [ (_, r, w) ] ->
        Alcotest.(check (pair bool bool)) label (read, write) (r, w)
      | _ -> Alcotest.fail label
    end
    else Alcotest.(check int) (label ^ ": silent") 0 n
  in
  expect ~read:true ~write:false;
  expect ~read:false ~write:true;
  expect ~read:true ~write:true;
  expect ~read:false ~write:false

(* Property: on random interest sets over socketpairs, poll reports
   exactly the model's readiness — readable iff read interest and data
   was written, writable iff write interest. *)
let prop_poll_matches_model =
  QCheck.Test.make ~count:100 ~name:"evloop-poll-matches-model"
    QCheck.(
      list_of_size (Gen.return 4) (triple bool bool bool))
    (fun specs ->
      let pairs =
        List.map
          (fun spec -> (spec, Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0))
          specs
      in
      let ev = Serve.Evloop.create () in
      List.iter
        (fun ((read, write, data), (a, b)) ->
          Unix.set_nonblock a;
          Serve.Evloop.register ev a ~read ~write;
          if data then ignore (Unix.write b (Bytes.of_string "d") 0 1))
        pairs;
      let seen = ref [] in
      ignore
        (Serve.Evloop.wait ev ~timeout:0.05
           ~handle:(fun fd ~readable ~writable ->
             seen := (fd, readable, writable) :: !seen));
      let model =
        List.filter_map
          (fun ((read, write, data), (a, _)) ->
            let readable = read && data in
            if readable || write then Some (a, readable, write) else None)
          pairs
      in
      List.iter
        (fun (_, (a, b)) ->
          Unix.close a;
          Unix.close b)
        pairs;
      List.sort compare !seen = List.sort compare model)

(* --- Outq -------------------------------------------------------------------- *)

let sendbuf_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  (a, b)

let test_outq_partial_write_resume () =
  let a, b = sendbuf_pair () in
  let stats = Serve.Stats.create () in
  let q = Serve.Outq.create () in
  let len = 512 * 1024 in
  let payload = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let recycled = ref 0 in
  Serve.Outq.push q
    (Serve.Outq.chunk ~recycle:(fun _ -> incr recycled) payload ~len);
  let received = Buffer.create len in
  let rbuf = Bytes.create 65536 in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "outq never drained"
    else
      match Serve.Outq.drain q ~stats a with
      | `Closed why -> Alcotest.fail ("unexpected close: " ^ why)
      | `Empty -> ()
      | `Blocked ->
        (* the reader frees socket-buffer space; the queue must resume
           exactly where the partial write stopped *)
        let k = Unix.read b rbuf 0 (Bytes.length rbuf) in
        Buffer.add_subbytes received rbuf 0 k;
        pump (guard - 1)
  in
  pump 1_000;
  let rec drain_rest () =
    match Unix.read b rbuf 0 (Bytes.length rbuf) with
    | k ->
      Buffer.add_subbytes received rbuf 0 k;
      if Buffer.length received < len then drain_rest ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  Unix.set_nonblock b;
  drain_rest ();
  Alcotest.(check int) "all bytes arrived" len (Buffer.length received);
  Alcotest.(check bool) "content intact" true
    (Bytes.equal (Buffer.to_bytes received) payload);
  Alcotest.(check int) "buffer recycled once" 1 !recycled;
  Alcotest.(check bool) "partial writes observed" true
    (stats.Serve.Stats.partial_writes > 0);
  Alcotest.(check bool) "write calls counted" true
    (stats.Serve.Stats.write_calls > 0);
  Unix.close a;
  Unix.close b

let test_outq_refcounted_broadcast () =
  (* One chunk fanned out to two queues: the recycle callback must fire
     exactly once, after the *last* queue lets go. *)
  let a1, b1 = sendbuf_pair () in
  let a2, b2 = sendbuf_pair () in
  let q1 = Serve.Outq.create () in
  let q2 = Serve.Outq.create () in
  let recycled = ref 0 in
  let len = 64 in
  let payload = Bytes.make len 'z' in
  let chunk =
    Serve.Outq.chunk ~shares:2 ~recycle:(fun _ -> incr recycled) payload ~len
  in
  Serve.Outq.push q1 chunk;
  Serve.Outq.push q2 chunk;
  (match Serve.Outq.drain q1 a1 with
  | `Empty -> ()
  | _ -> Alcotest.fail "q1 should drain in one write");
  Alcotest.(check int) "not recycled while q2 holds a share" 0 !recycled;
  (match Serve.Outq.drain q2 a2 with
  | `Empty -> ()
  | _ -> Alcotest.fail "q2 should drain in one write");
  Alcotest.(check int) "recycled exactly once" 1 !recycled;
  List.iter Unix.close [ a1; b1; a2; b2 ]

let test_outq_hwm_and_clear () =
  let q = Serve.Outq.create ~hwm:100 () in
  let recycled = ref 0 in
  let payload = Bytes.make 200 'q' in
  Serve.Outq.push q
    (Serve.Outq.chunk ~recycle:(fun _ -> incr recycled) payload ~len:200);
  Alcotest.(check bool) "over hwm" true (Serve.Outq.over_hwm q);
  Alcotest.(check int) "queued" 200 (Serve.Outq.queued_bytes q);
  Serve.Outq.clear q;
  Alcotest.(check bool) "empty after clear" true (Serve.Outq.is_empty q);
  Alcotest.(check int) "share released" 1 !recycled

(* --- Socket fleet ------------------------------------------------------------ *)

let fleet_workspace tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let fleet_config ?(n = 3) ?(t = 1) ?(window = 16) ?kill ?(respawn = false)
    ?(respawn_budget = 3) ?(respawn_backoff = 0.1) ?(wal = false)
    ?(chaos = []) ~tag instances =
  let dir = fleet_workspace tag in
  {
    Serve.Fleet.n;
    t;
    transport = `Unix dir;
    workspace = dir;
    instances;
    window;
    big_d = 0.3;
    batch = true;
    backend = Serve.Evloop.Poll;
    kill;
    max_rounds = None;
    proposals = (fun i node -> (i * n) + node);
    client_timeout = None;
    verbose = false;
    respawn;
    respawn_budget;
    respawn_backoff;
    wal;
    chaos;
  }

let run_fleet ?n ?t ?window ?kill ~tag instances =
  Serve.Fleet.run (fleet_config ?n ?t ?window ?kill ~tag instances)

let test_fleet_smoke () =
  match run_fleet ~tag:"smoke" 50 with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "ok" true r.Serve.Report.ok;
    Alcotest.(check int) "completed" 50 r.Serve.Report.completed;
    Alcotest.(check int) "undecided" 0 r.Serve.Report.undecided;
    Alcotest.(check bool) "stats from every engine" true
      (List.length r.Serve.Report.stats = 3);
    Alcotest.(check bool) "batching coalesced" true
      (r.Serve.Report.total.Serve.Stats.max_batch > 1)

(* Open a raw client connection (Hello node 0) that will never read —
   the head-of-line-blocking scenario the outbound queues exist for. *)
let stalled_conn ~transport node =
  let deadline = Live.Sockets.now () +. 5.0 in
  match
    Live.Sockets.connect_retry ~deadline
      (Live.Sockets.addr_of ~transport node)
  with
  | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
  | Ok fd -> (
    match
      Live.Sockets.write_all ~deadline fd
        (Live.Frame.encode (Live.Frame.Hello { node = 0 }))
    with
    | Ok () -> fd
    | Error e -> Alcotest.fail (Live.Sockets.error_to_string e))

let storm_drive ?(reconnect = false) cfg ~on_idle =
  Serve.Client.run ~on_idle
    {
      Serve.Client.n = cfg.Serve.Fleet.n;
      transport = cfg.Serve.Fleet.transport;
      first = 0;
      load = Serve.Client.Count cfg.Serve.Fleet.instances;
      window = cfg.Serve.Fleet.window;
      proposals = cfg.Serve.Fleet.proposals;
      timeout = Serve.Fleet.default_timeout cfg;
      reconnect;
    }

let test_fleet_stalled_client_does_not_stall () =
  (* Regression: a connected client that never reads its Decide stream
     must not delay mesh progress.  With blocking sends it froze the
     whole engine for 2 s per write; with outbound queues the storm runs
     at the same speed as without the parasite. *)
  let instances = 150 in
  let baseline =
    match run_fleet ~tag:"stall-base" instances with
    | Error e -> Alcotest.fail e
    | Ok r ->
      Alcotest.(check int) "baseline completes" instances
        r.Serve.Report.completed;
      r.Serve.Report.elapsed
  in
  let cfg = fleet_config ~tag:"stall" instances in
  match
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        let stalled =
          List.init cfg.Serve.Fleet.n (fun i ->
              stalled_conn ~transport:cfg.Serve.Fleet.transport (i + 1))
        in
        let r = storm_drive cfg ~on_idle in
        List.iter Unix.close stalled;
        r)
  with
  | Error e -> Alcotest.fail e
  | Ok (outcome, _) ->
    Alcotest.(check (list int)) "everything settles" []
      outcome.Serve.Client.undecided;
    let budget = (2.0 *. baseline) +. 0.75 in
    Alcotest.(check bool)
      (Printf.sprintf "no head-of-line stall (%.3fs vs %.3fs baseline)"
         outcome.Serve.Client.elapsed baseline)
      true
      (outcome.Serve.Client.elapsed <= budget)

let test_fleet_half_open_handshake () =
  (* A connection that never says Hello parks in pending state and gets
     dropped at its deadline; in-flight instances must not notice. *)
  let cfg = fleet_config ~tag:"halfopen" 60 in
  match
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        let deadline = Live.Sockets.now () +. 5.0 in
        let half_open =
          match
            Live.Sockets.connect_retry ~deadline
              (Live.Sockets.addr_of ~transport:cfg.Serve.Fleet.transport 1)
          with
          | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
          | Ok fd -> fd
        in
        let r = storm_drive cfg ~on_idle in
        (try Unix.close half_open with Unix.Unix_error _ -> ());
        r)
  with
  | Error e -> Alcotest.fail e
  | Ok (outcome, _) ->
    Alcotest.(check (list int)) "storm unaffected" []
      outcome.Serve.Client.undecided;
    Alcotest.(check (list int)) "no node died" []
      outcome.Serve.Client.dead_nodes

let test_fleet_latency_not_tick_quantized () =
  (* The client settles on Decide arrival, not on a 50 ms poll tick: a
     small message-speed storm's p50 must resolve well below the old
     tick. *)
  match run_fleet ~tag:"latency" ~window:8 80 with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    Alcotest.(check int) "completed" 80 r.Serve.Report.completed;
    match r.Serve.Report.latency with
    | None -> Alcotest.fail "no latency measured"
    | Some l ->
      Alcotest.(check bool)
        (Printf.sprintf "p50 %.4fs below the old 50ms tick" l.Serve.Report.p50)
        true
        (l.Serve.Report.p50 < 0.05))

(* 64 concurrent client processes against one mesh: every child drives
   its own instance range and reports each instance's decided values;
   every instance must be reported, and none with two values. *)
let test_fleet_many_clients () =
  let tag = "many-clients" in
  let n_clients = 64 and per_client = 3 in
  let cfg = fleet_config ~window:4 ~tag (n_clients * per_client) in
  let result =
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        (* Engines exit once their last client disconnects with nothing
           active — racy under staggered children, so an anchor client
           connection pins the fleet up until every child is reaped.  (It
           never reads: it also exercises the broadcast fan-out path.) *)
        let anchor =
          List.init cfg.Serve.Fleet.n (fun i ->
              stalled_conn ~transport:cfg.Serve.Fleet.transport (i + 1))
        in
        let children =
          List.init n_clients (fun c ->
              let r, w = Unix.pipe () in
              match Unix.fork () with
              | 0 ->
                (try
                   Unix.close r;
                   let oc = Unix.out_channel_of_descr w in
                   (match
                      Serve.Client.run
                        {
                          Serve.Client.n = cfg.Serve.Fleet.n;
                          transport = cfg.Serve.Fleet.transport;
                          first = c * per_client;
                          load = Serve.Client.Count per_client;
                          window = 4;
                          proposals = cfg.Serve.Fleet.proposals;
                          timeout = 30.0;
                          reconnect = false;
                        }
                    with
                   | Error _ -> Unix._exit 1
                   | Ok o ->
                     Array.iteri
                       (fun idx per_node ->
                         let values =
                           Array.to_list per_node
                           |> List.filter_map (Option.map fst)
                           |> List.sort_uniq compare
                         in
                         Printf.fprintf oc "%d %s\n"
                           ((c * per_client) + idx)
                           (String.concat ","
                              (List.map string_of_int values)))
                       o.Serve.Client.decisions;
                     flush oc;
                     Unix._exit 0)
                 with _ -> Unix._exit 2)
              | pid ->
                Unix.close w;
                (pid, r))
        in
        (* Reap every client while keeping the fleet pumped. *)
        let deadline = Live.Sockets.now () +. 60.0 in
        let remaining = ref (List.map fst children) in
        let failures = ref 0 in
        while !remaining <> [] && Live.Sockets.now () < deadline do
          remaining :=
            List.filter
              (fun pid ->
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> true
                | _, Unix.WEXITED 0 -> false
                | _, _ ->
                  incr failures;
                  false
                | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false)
              !remaining;
          on_idle ();
          if !remaining <> [] then
            Live.Sockets.sleep_until (Live.Sockets.now () +. 0.02)
        done;
        List.iter
          (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          !remaining;
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          anchor;
        if !remaining <> [] then Error "clients did not finish in 60s"
        else if !failures > 0 then
          Error (Printf.sprintf "%d client(s) failed" !failures)
        else begin
          let verdicts = Hashtbl.create 256 in
          List.iter
            (fun (_, r) ->
              let ic = Unix.in_channel_of_descr r in
              (try
                 while true do
                   match String.split_on_char ' ' (input_line ic) with
                   | [ i; vs ] ->
                     Hashtbl.replace verdicts (int_of_string i) vs
                   | _ -> ()
                 done
               with End_of_file -> ());
              close_in ic)
            children;
          Ok verdicts
        end)
  in
  match result with
  | Error e -> Alcotest.fail (tag ^ ": " ^ e)
  | Ok (verdicts, _mesh) ->
    Alcotest.(check int)
      (tag ^ ": every instance reported")
      (n_clients * per_client) (Hashtbl.length verdicts);
    Hashtbl.iter
      (fun i vs ->
        if String.contains vs ',' then
          Alcotest.fail
            (Printf.sprintf "%s: instance %d disagreement: %s" tag i vs))
      verdicts

let test_fleet_kill_mid_storm () =
  match
    run_fleet ~tag:"kill" ~n:5 ~t:2
      ~kill:{ Serve.Report.node = 1; after_frames = 57 }
      120
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "ok" true r.Serve.Report.ok;
    Alcotest.(check int) "survivors settle everything" 120
      r.Serve.Report.completed;
    Alcotest.(check bool) "kill realized" true
      (match List.assoc_opt 1 r.Serve.Report.stats with
      | Some _ -> true
      | None -> false)

(* --- WAL -------------------------------------------------------------------- *)

let wal_tmp tag =
  let dir = fleet_workspace ("wal-" ^ tag) in
  Serve.Wal.path ~dir ~node:1

let wal_write path entries =
  match Serve.Wal.recover ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok (w, _) ->
    List.iter
      (fun (e : Serve.Wal.entry) ->
        Serve.Wal.append w ~instance:e.instance ~value:e.value ~round:e.round)
      entries;
    Serve.Wal.close w

let wal_entries path =
  match Serve.Wal.load ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok r -> r.Serve.Wal.entries

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_prefix xs ys

let test_wal_roundtrip () =
  let path = wal_tmp "roundtrip" in
  (try Sys.remove path with Sys_error _ -> ());
  let entries =
    [
      { Serve.Wal.instance = 0; value = 7; round = 1 };
      { Serve.Wal.instance = 3; value = 11; round = 2 };
      { Serve.Wal.instance = 1; value = 5; round = 1 };
    ]
  in
  wal_write path entries;
  (match Serve.Wal.load ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "nothing discarded" 0 r.Serve.Wal.discarded;
    Alcotest.(check bool) "entries survive in order" true
      (r.Serve.Wal.entries = entries));
  (* a second recover replays, then extends the same log *)
  (match Serve.Wal.recover ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok (w, r) ->
    Alcotest.(check bool) "replayed" true (r.Serve.Wal.entries = entries);
    Serve.Wal.append w ~instance:9 ~value:1 ~round:1;
    Alcotest.(check int) "appended counts new entries only" 1
      (Serve.Wal.appended w);
    Serve.Wal.close w);
  Alcotest.(check int) "extended" 4 (List.length (wal_entries path));
  (* the header pins the owner: another node's scan refuses the file *)
  match Serve.Wal.load ~path ~node:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign node's WAL accepted"

let prop_wal_roundtrip =
  QCheck.Test.make ~count:50 ~name:"wal-random-roundtrip"
    QCheck.(
      small_list (triple (int_bound 1_000_000) (int_bound 0xFFFF) (int_bound 64)))
    (fun raw ->
      let entries =
        List.map
          (fun (instance, value, round) -> { Serve.Wal.instance; value; round })
          raw
      in
      let path = wal_tmp "qcheck" in
      (try Sys.remove path with Sys_error _ -> ());
      wal_write path entries;
      wal_entries path = entries)

let test_wal_truncation_sweep () =
  (* Every possible torn tail: load keeps the CRC-valid prefix, recover
     truncates the tear and appends cleanly on top of it. *)
  let path = wal_tmp "trunc" in
  (try Sys.remove path with Sys_error _ -> ());
  let entries =
    List.init 4 (fun i ->
        { Serve.Wal.instance = i; value = 100 + i; round = 1 + (i mod 2) })
  in
  wal_write path entries;
  let bytes = read_file path in
  let full = String.length bytes in
  let cut = wal_tmp "trunc-cut" in
  for len = 12 to full - 1 do
    write_file cut (String.sub bytes 0 len);
    (match Serve.Wal.load ~path:cut ~node:1 with
    | Error e -> Alcotest.fail (Printf.sprintf "load at %dB: %s" len e)
    | Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "%dB: valid prefix" len)
        true
        (is_prefix r.Serve.Wal.entries entries);
      Alcotest.(check bool)
        (Printf.sprintf "%dB: torn entry dropped" len)
        true
        (List.length r.Serve.Wal.entries < List.length entries));
    match Serve.Wal.recover ~path:cut ~node:1 with
    | Error e -> Alcotest.fail (Printf.sprintf "recover at %dB: %s" len e)
    | Ok (w, r) ->
      let kept = r.Serve.Wal.entries in
      Serve.Wal.append w ~instance:999 ~value:1 ~round:1;
      Serve.Wal.close w;
      Alcotest.(check bool)
        (Printf.sprintf "%dB: clean extension after truncation" len)
        true
        (wal_entries cut
        = kept @ [ { Serve.Wal.instance = 999; value = 1; round = 1 } ])
  done

let test_wal_byte_flip_sweep () =
  let path = wal_tmp "flip" in
  (try Sys.remove path with Sys_error _ -> ());
  let entries =
    List.init 3 (fun i -> { Serve.Wal.instance = i; value = 200 + i; round = 1 })
  in
  wal_write path entries;
  let bytes = read_file path in
  let flip = wal_tmp "flip-cut" in
  let flipped pos =
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  in
  (* body flips: the CRC framing stops the scan at the damaged frame —
     what survives is a strict prefix of what was written, never a
     resurrected or altered entry *)
  for pos = 12 to String.length bytes - 1 do
    write_file flip (flipped pos);
    match Serve.Wal.load ~path:flip ~node:1 with
    | Error e -> Alcotest.fail (Printf.sprintf "body flip %d: %s" pos e)
    | Ok r ->
      Alcotest.(check bool)
        (Printf.sprintf "flip %d: prefix only" pos)
        true
        (is_prefix r.Serve.Wal.entries entries);
      Alcotest.(check bool)
        (Printf.sprintf "flip %d: damaged frame rejected" pos)
        true
        (List.length r.Serve.Wal.entries < List.length entries)
  done;
  (* header flips: the whole file is refused, and deleting it recovers a
     clean fresh join *)
  for pos = 0 to 11 do
    write_file flip (flipped pos);
    (match Serve.Wal.load ~path:flip ~node:1 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "header flip %d accepted" pos));
    Sys.remove flip;
    match Serve.Wal.recover ~path:flip ~node:1 with
    | Error e -> Alcotest.fail e
    | Ok (w, r) ->
      Alcotest.(check bool) "fresh after rejection" true
        (r.Serve.Wal.entries = []);
      Serve.Wal.close w
  done

(* --- Chaos proxy ------------------------------------------------------------- *)

let chaos_rig ~tag actions =
  let dir = fleet_workspace ("chaos-" ^ tag) in
  let transport = `Unix dir in
  let upstream =
    match Live.Sockets.listen (Live.Sockets.addr_of ~transport 2) with
    | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
    | Ok fd -> fd
  in
  let link = { Serve.Chaosproxy.src = 1; dst = 2; actions } in
  let pid =
    match Serve.Chaosproxy.spawn ~transport ~n:2 link with
    | Error e -> Alcotest.fail e
    | Ok pid -> pid
  in
  let dial () =
    match
      Live.Sockets.connect_retry
        ~deadline:(Live.Sockets.now () +. 5.0)
        (Serve.Chaosproxy.proxy_addr ~transport ~n:2 ~src:1 ~dst:2)
    with
    | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
    | Ok fd -> fd
  in
  let accept () =
    match
      Live.Sockets.accept_timeout ~deadline:(Live.Sockets.now () +. 5.0)
        upstream
    with
    | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
    | Ok fd -> fd
  in
  let finish () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    (try Unix.close upstream with Unix.Unix_error _ -> ());
    Serve.Chaosproxy.cleanup ~transport ~n:2 link
  in
  (dial, accept, finish)

let send fd s =
  match
    Live.Sockets.write_all ~deadline:(Live.Sockets.now () +. 5.0) fd s
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)

let read_exact ~deadline fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n && Live.Sockets.now () < deadline do
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read fd buf !off (n - !off) with
      | 0 -> Alcotest.fail "peer closed mid-read"
      | k -> off := !off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
  done;
  if !off < n then Alcotest.fail "timed out waiting for relayed bytes";
  Bytes.to_string buf

let wait_closed ~deadline fd =
  let buf = Bytes.create 1 in
  let rec go () =
    if Live.Sockets.now () > deadline then
      Alcotest.fail "link was not torn down"
    else
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd buf 0 1 with
        | 0 -> ()
        | _ -> go ()
        | exception
            Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
          go ())
  in
  go ()

let test_chaosproxy_generate_deterministic () =
  let gen seed =
    Serve.Chaosproxy.generate ~seed ~horizon:10.0 ~cuts:3 ~resets:1
      ~throttles:2 ~corrupts:2 ()
  in
  Alcotest.(check int) "count" 8 (List.length (gen 7));
  Alcotest.(check bool) "same seed, same script" true (gen 7 = gen 7);
  Alcotest.(check bool) "different seed, different script" true
    (gen 7 <> gen 8);
  let ats =
    List.map
      (function
        | Serve.Chaosproxy.Cut { at; _ }
        | Serve.Chaosproxy.Reset { at }
        | Serve.Chaosproxy.Throttle { at; _ }
        | Serve.Chaosproxy.Corrupt { at; _ } ->
          at)
      (gen 7)
  in
  Alcotest.(check bool) "sorted by time" true
    (ats = List.sort compare ats);
  Alcotest.(check bool) "within horizon" true
    (List.for_all (fun at -> at >= 0.0 && at < 10.0) ats)

let test_chaosproxy_corrupt () =
  let dial, accept, finish =
    chaos_rig ~tag:"corrupt"
      [ Serve.Chaosproxy.Corrupt { at = 0.0; bytes = 2 } ]
  in
  Fun.protect ~finally:finish (fun () ->
      let src = dial () in
      let dst = accept () in
      let deadline = Live.Sockets.now () +. 5.0 in
      (* src -> dst: a bit flips in each of the next two payload bytes *)
      send src "hell";
      Alcotest.(check string) "two bytes corrupted, rest intact" "idll"
        (read_exact ~deadline dst 4);
      send src "o";
      Alcotest.(check string) "budget exhausted" "o"
        (read_exact ~deadline dst 1);
      (* the reverse direction is never corrupted *)
      send dst "ok";
      Alcotest.(check string) "dst -> src clean" "ok"
        (read_exact ~deadline src 2);
      Unix.close src;
      Unix.close dst)

let test_chaosproxy_cut_delays_not_drops () =
  let dial, accept, finish =
    chaos_rig ~tag:"cut" [ Serve.Chaosproxy.Cut { at = 0.0; duration = 0.5 } ]
  in
  Fun.protect ~finally:finish (fun () ->
      let src = dial () in
      let dst = accept () in
      let sent = Live.Sockets.now () in
      send src "x";
      let got = read_exact ~deadline:(sent +. 5.0) dst 1 in
      let delay = Live.Sockets.now () -. sent in
      Alcotest.(check string) "delivered after the cut heals" "x" got;
      Alcotest.(check bool)
        (Printf.sprintf "held for the cut (%.3fs)" delay)
        true (delay >= 0.15);
      Unix.close src;
      Unix.close dst)

let test_chaosproxy_reset_fires_once () =
  let dial, accept, finish =
    chaos_rig ~tag:"reset" [ Serve.Chaosproxy.Reset { at = 0.3 } ]
  in
  Fun.protect ~finally:finish (fun () ->
      let src = dial () in
      let dst = accept () in
      let deadline = Live.Sockets.now () +. 5.0 in
      send src "a";
      Alcotest.(check string) "relays before the reset" "a"
        (read_exact ~deadline dst 1);
      (* at t=0.3 both sides of the relay die *)
      wait_closed ~deadline src;
      wait_closed ~deadline dst;
      Unix.close src;
      Unix.close dst;
      (* the proxy outlives the session, and the reset fired once: a
         re-dial relays cleanly in both directions *)
      let src = dial () in
      let dst = accept () in
      let deadline = Live.Sockets.now () +. 5.0 in
      send src "b";
      Alcotest.(check string) "rejoined link forwards" "b"
        (read_exact ~deadline dst 1);
      send dst "c";
      Alcotest.(check string) "and answers" "c" (read_exact ~deadline src 1);
      Unix.close src;
      Unix.close dst)

let test_chaosproxy_throttle () =
  let dial, accept, finish =
    chaos_rig ~tag:"throttle"
      [
        Serve.Chaosproxy.Throttle
          { at = 0.0; duration = 5.0; bytes_per_sec = 1000 };
      ]
  in
  Fun.protect ~finally:finish (fun () ->
      let src = dial () in
      let dst = accept () in
      let sent = Live.Sockets.now () in
      send src (String.make 500 'z');
      let got = read_exact ~deadline:(sent +. 5.0) dst 500 in
      let took = Live.Sockets.now () -. sent in
      Alcotest.(check int) "all bytes delivered" 500 (String.length got);
      Alcotest.(check bool)
        (Printf.sprintf "rate-limited (%.3fs for 500B at 1000B/s)" took)
        true (took >= 0.2);
      Unix.close src;
      Unix.close dst)

(* --- Crash-recovery: respawn + WAL replay + client reconnect ----------------- *)

let test_fleet_respawn_recovers () =
  (* The full recovery path: a mid-storm SIGKILL victim is respawned by
     the fleet, replays its WAL, catches up over the mesh, and the
     reconnecting client fills its verdict column back in — nothing
     undecided, nobody left dead, and every instance still agrees. *)
  let cfg =
    fleet_config ~tag:"respawn" ~n:3 ~t:1 ~respawn:true
      ~kill:{ Serve.Report.node = 1; after_frames = 57 }
      120
  in
  match
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        storm_drive ~reconnect:true cfg ~on_idle)
  with
  | Error e -> Alcotest.fail e
  | Ok (outcome, mesh) ->
    Alcotest.(check (list int)) "everything settles" []
      outcome.Serve.Client.undecided;
    Alcotest.(check (list int)) "the victim came back" []
      outcome.Serve.Client.dead_nodes;
    Alcotest.(check bool) "client re-dialed it" true
      (outcome.Serve.Client.reconnects >= 1);
    Alcotest.(check bool) "fleet respawned it" true
      (List.mem_assoc 1 mesh.Serve.Fleet.respawned);
    Array.iteri
      (fun idx per_node ->
        let values =
          Array.to_list per_node
          |> List.filter_map (Option.map fst)
          |> List.sort_uniq compare
        in
        if List.length values <> 1 then
          Alcotest.fail
            (Printf.sprintf "instance %d: %d distinct verdicts" idx
               (List.length values)))
      outcome.Serve.Client.decisions

let test_soak_kill_storm_runs_full_duration () =
  (* Regression: a rolling kill storm that takes down every node at
     least once must not end the soak early.  The soak's client has to
     count each re-dialed node live again, or the live count reaches
     zero once every node has died and the soak stops short of
     [duration] while still reporting ok. *)
  let n = 3 and kill_every = 1.0 in
  let duration = float_of_int (n + 1) *. kill_every in
  let cfg = fleet_config ~tag:"soak-storm" ~n ~t:1 ~respawn:true 0 in
  match Serve.Soak.run ~kill_every cfg ~duration ~bucket:1.0 with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool)
      (Printf.sprintf "every node killed (%d kills)" s.Serve.Soak.kills)
      true
      (s.Serve.Soak.kills >= n);
    Alcotest.(check bool)
      (Printf.sprintf "ran the full %.1fs (elapsed %.2fs)" duration
         s.Serve.Soak.elapsed)
      true
      (s.Serve.Soak.elapsed >= duration);
    Alcotest.(check bool)
      (Printf.sprintf "victims re-dialed (%d reconnects, %d kills)"
         s.Serve.Soak.reconnects s.Serve.Soak.kills)
      true
      (s.Serve.Soak.reconnects >= s.Serve.Soak.kills - 1);
    Alcotest.(check bool) "no disagreement" true s.Serve.Soak.ok

let test_fleet_chaos_safe_cut () =
  (* A cut shorter than big_d on one mesh link is delay, not failure —
     TCP backpressure holds the bytes and the round deadlines absorb the
     stall.  The storm must stay clean end to end. *)
  let chaos =
    [
      {
        Serve.Chaosproxy.src = 1;
        dst = 2;
        actions = [ Serve.Chaosproxy.Cut { at = 0.5; duration = 0.08 } ];
      };
    ]
  in
  let cfg = fleet_config ~tag:"chaos-cut" ~chaos 60 in
  match Serve.Fleet.run cfg with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "ok" true r.Serve.Report.ok;
    Alcotest.(check int) "completed" 60 r.Serve.Report.completed;
    Alcotest.(check int) "undecided" 0 r.Serve.Report.undecided

let () =
  Alcotest.run "serve"
    [
      ( "slab",
        [
          Alcotest.test_case "basics" `Quick test_slab_basics;
          Alcotest.test_case "reuse-bounded" `Quick test_slab_reuse_bounded;
          Alcotest.test_case "iter-order" `Quick test_slab_iter_order;
        ] );
      ("bitvec", [ Alcotest.test_case "grow-set-mem" `Quick test_bitvec ]);
      ( "mux",
        [
          Alcotest.test_case "early-frames" `Quick test_mux_early_frames;
          Alcotest.test_case "deadline-fallback" `Quick test_mux_deadline_fallback;
          Alcotest.test_case "resubmit-served-from-log" `Quick
            test_mux_resubmit_served_from_log;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "storm-decides" `Quick test_loopback_storm_decides;
          Alcotest.test_case "deterministic" `Quick test_loopback_deterministic;
          Alcotest.test_case "batching-reduces-writes" `Quick
            test_loopback_batching_reduces_writes;
          Alcotest.test_case "kill-mid-storm" `Quick test_loopback_kill_mid_storm;
          Alcotest.test_case "kill-realized-phases" `Quick
            test_loopback_kill_realized_phases;
          Alcotest.test_case "kill-budget-unreached" `Quick
            test_loopback_no_kill_when_budget_unreached;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "poll-backend" `Quick test_evloop_poll;
          Alcotest.test_case "hangup-masked-to-interest" `Quick
            test_evloop_hangup_masked;
          QCheck_alcotest.to_alcotest prop_poll_matches_model;
        ] );
      ( "outq",
        [
          Alcotest.test_case "partial-write-resume" `Quick
            test_outq_partial_write_resume;
          Alcotest.test_case "refcounted-broadcast" `Quick
            test_outq_refcounted_broadcast;
          Alcotest.test_case "hwm-and-clear" `Quick test_outq_hwm_and_clear;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          QCheck_alcotest.to_alcotest prop_wal_roundtrip;
          Alcotest.test_case "truncation-sweep" `Quick
            test_wal_truncation_sweep;
          Alcotest.test_case "byte-flip-sweep" `Quick test_wal_byte_flip_sweep;
        ] );
      ( "chaosproxy",
        [
          Alcotest.test_case "generate-deterministic" `Quick
            test_chaosproxy_generate_deterministic;
          Alcotest.test_case "corrupt-flips-bytes" `Slow test_chaosproxy_corrupt;
          Alcotest.test_case "cut-delays-not-drops" `Slow
            test_chaosproxy_cut_delays_not_drops;
          Alcotest.test_case "reset-fires-once" `Slow
            test_chaosproxy_reset_fires_once;
          Alcotest.test_case "throttle-rate-limits" `Slow
            test_chaosproxy_throttle;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "unix-smoke" `Slow test_fleet_smoke;
          Alcotest.test_case "unix-kill-mid-storm" `Slow
            test_fleet_kill_mid_storm;
          Alcotest.test_case "stalled-client-no-stall" `Slow
            test_fleet_stalled_client_does_not_stall;
          Alcotest.test_case "half-open-handshake" `Slow
            test_fleet_half_open_handshake;
          Alcotest.test_case "latency-not-tick-quantized" `Slow
            test_fleet_latency_not_tick_quantized;
          Alcotest.test_case "sixty-four-clients" `Slow
            test_fleet_many_clients;
          Alcotest.test_case "respawn-recovers" `Slow
            test_fleet_respawn_recovers;
          Alcotest.test_case "chaos-safe-cut" `Slow test_fleet_chaos_safe_cut;
          Alcotest.test_case "soak-kill-storm-runs-full-duration" `Slow
            test_soak_kill_storm_runs_full_duration;
        ] );
    ]

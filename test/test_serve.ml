(* Consensus-as-a-service: the instance slab, the multiplexer, the
   deterministic loopback storm engine, batching, and kill-mid-storm
   judging — socket fleet smoke lives at the bottom. *)

(* --- Slab ------------------------------------------------------------------- *)

let test_slab_basics () =
  let slab = Serve.Slab.create ~initial:2 ~make:(fun () -> ref 0) () in
  let none = ref (-1) in
  let a = Serve.Slab.acquire slab ~instance:7 in
  a := 1;
  let b = Serve.Slab.acquire slab ~instance:9 in
  b := 2;
  Alcotest.(check int) "a" 1 !a;
  Alcotest.(check int) "b" 2 !b;
  Alcotest.(check int) "active" 2 (Serve.Slab.active slab);
  Alcotest.(check bool) "find 7" true
    (Serve.Slab.find slab ~instance:7 ~default:none == a);
  Alcotest.(check bool) "find 8" true
    (Serve.Slab.find slab ~instance:8 ~default:none == none);
  (match Serve.Slab.acquire slab ~instance:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double acquire accepted");
  Serve.Slab.release slab ~instance:7;
  Alcotest.(check bool) "released" true
    (Serve.Slab.find slab ~instance:7 ~default:none == none);
  Alcotest.(check bool) "9 still found" true
    (Serve.Slab.find slab ~instance:9 ~default:none == b);
  Alcotest.(check int) "active after release" 1 (Serve.Slab.active slab)

let test_slab_reuse_bounded () =
  (* Thousands of sequential instances must recycle a handful of slots:
     allocation is per concurrent instance, never per decision. *)
  let slab = Serve.Slab.create ~initial:4 ~make:(fun () -> ref 0) () in
  for i = 0 to 4999 do
    let r = Serve.Slab.acquire slab ~instance:i in
    r := i;
    Serve.Slab.release slab ~instance:i
  done;
  Alcotest.(check int) "capacity stays 1" 1 (Serve.Slab.capacity slab);
  Alcotest.(check int) "reused" 4999 (Serve.Slab.reused slab);
  Alcotest.(check int) "nothing active" 0 (Serve.Slab.active slab)

let test_slab_iter_order () =
  let slab = Serve.Slab.create ~make:(fun () -> ref 0) () in
  List.iter
    (fun i -> Serve.Slab.acquire slab ~instance:i := i)
    [ 30; 10; 20 ];
  Serve.Slab.release slab ~instance:10;
  let seen = ref [] in
  Serve.Slab.iter slab (fun id _ -> seen := id :: !seen);
  (* slot (allocation) order, not id order *)
  Alcotest.(check (list int)) "iter order" [ 30; 20 ] (List.rev !seen)

(* Property: under random binds and releases — ids drawn from a small
   range, so probe runs collide, wrap and grow the table — every id finds
   exactly what a plain map says it holds. *)
let prop_slab_matches_map =
  QCheck.Test.make ~count:200 ~name:"slab-matches-a-map"
    QCheck.(list (pair bool (int_bound 300)))
    (fun ops ->
      let slab = Serve.Slab.create ~initial:2 ~make:(fun () -> ref 0) () in
      let none = ref (-1) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (bind, id) ->
          if bind && not (Hashtbl.mem model id) then begin
            Serve.Slab.acquire slab ~instance:id := id;
            Hashtbl.replace model id ()
          end
          else if not bind then begin
            Serve.Slab.release slab ~instance:id;
            Hashtbl.remove model id
          end)
        ops;
      Serve.Slab.active slab = Hashtbl.length model
      && List.for_all
           (fun id ->
             let got = Serve.Slab.find slab ~instance:id ~default:none in
             if Hashtbl.mem model id then !got = id else got == none)
           (List.init 301 Fun.id))

(* --- Decided table ------------------------------------------------------- *)

let chunk = Serve.Decided.chunk_size

let status_t =
  Alcotest.testable
    (fun ppf -> function
      | Serve.Decided.Unfinished -> Format.pp_print_string ppf "unfinished"
      | Serve.Decided.Gave_up -> Format.pp_print_string ppf "gave-up"
      | Serve.Decided.Spilled -> Format.pp_print_string ppf "spilled"
      | Serve.Decided.Decided (v, r) -> Format.fprintf ppf "decided(v%d,r%d)" v r)
    ( = )

let test_decided_spill_rule () =
  let d = Serve.Decided.create ~spill:true () in
  let gave = chunk + 5 in
  for i = 0 to (2 * chunk) - 1 do
    if i = gave then Serve.Decided.give_up d i
    else Serve.Decided.decide d i ~value:i ~round:1
  done;
  Alcotest.(check status_t) "resident before a commit" (Serve.Decided.Decided (3, 1))
    (Serve.Decided.status d 3);
  Serve.Decided.spill d;
  Alcotest.(check status_t) "complete chunk spilled" Serve.Decided.Spilled
    (Serve.Decided.status d 3);
  Alcotest.(check bool) "spilled still finished" true (Serve.Decided.finished d 3);
  Alcotest.(check bool) "spilled still decided" true (Serve.Decided.is_decided d 3);
  Alcotest.(check status_t) "a gave-up instance pins its chunk"
    Serve.Decided.Gave_up (Serve.Decided.status d gave);
  Alcotest.(check int) "one resident" 1 (Serve.Decided.resident_chunks d);
  (* a peer's decision upgrades it; the chunk spills at the next commit *)
  Serve.Decided.decide d gave ~value:9 ~round:2;
  Alcotest.(check status_t) "upgraded" (Serve.Decided.Decided (9, 2))
    (Serve.Decided.status d gave);
  Serve.Decided.spill d;
  Alcotest.(check int) "both spilled" 2 (Serve.Decided.spilled_chunks d);
  Alcotest.(check int) "count keeps spilled decisions" (2 * chunk)
    (Serve.Decided.count d);
  Alcotest.(check status_t) "untouched id" Serve.Decided.Unfinished
    (Serve.Decided.status d (5 * chunk));
  (* the widest value and round survive the packed cell *)
  Serve.Decided.decide d (5 * chunk) ~value:0xFFFF_FFFF
    ~round:Serve.Decided.max_round;
  Alcotest.(check status_t) "packed extremes"
    (Serve.Decided.Decided (0xFFFF_FFFF, Serve.Decided.max_round))
    (Serve.Decided.status d (5 * chunk));
  (match Serve.Decided.decide d 3 ~value:1 ~round:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "re-deciding a spilled instance accepted");
  (* without a log nothing is durable, so nothing spills *)
  let m = Serve.Decided.create ~spill:false () in
  for i = 0 to chunk - 1 do
    Serve.Decided.decide m i ~value:1 ~round:1
  done;
  Serve.Decided.spill m;
  Alcotest.(check int) "no log, no spill" 0 (Serve.Decided.spilled_chunks m);
  let seen = ref 0 in
  Serve.Decided.iter m (fun ~instance:_ ~value:_ ~round:_ -> incr seen);
  Alcotest.(check int) "iter visits every resident decision" chunk !seen

(* Bytes [f] allocates straight into the major heap, where every large
   block goes: a chunk, a directory page, a rehashed bucket array, a
   bitmap.  Minor-heap words are left out; OCaml 5 counts them in lumps
   at each minor collection. *)
let major_bytes f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  (m1 -. m0 -. (p1 -. p0)) *. float_of_int (Sys.word_size / 8)

let test_decided_insert_never_rehashes () =
  (* The table a Hashtbl replaced stalled every engine at once when it
     doubled near 2^19 and 2^20 entries.  Here no insert may allocate more
     than one chunk of cells plus one directory page, however many
     decisions came before. *)
  let d = Serve.Decided.create ~spill:false () in
  let bound = float_of_int ((chunk * 8) + 8192) in
  let worst = ref 0.0 in
  for i = 0 to (1 lsl 21) - 1 do
    let grew =
      major_bytes (fun () -> Serve.Decided.decide d i ~value:(i land 1) ~round:1)
    in
    if grew > !worst then worst := grew
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst insert allocated %.0f B (bound %.0f B)" !worst bound)
    true (!worst <= bound);
  Alcotest.(check int) "all decided" (1 lsl 21) (Serve.Decided.count d);
  Alcotest.(check int) "one chunk per 4096" ((1 lsl 21) / chunk)
    (Serve.Decided.resident_chunks d)

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

let test_mux_far_instance_bounded () =
  (* A Submit near the top of the id space must cost one chunk, not a
     bitmap up to the id: one client could otherwise make every engine
     allocate 128 MiB. *)
  let mux =
    M.create
      { Serve.Mux.me = 1; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest:_ _ -> ())
      ()
  in
  M.submit mux ~now:0.0 ~instance:0 ~proposal:1;
  let grew =
    major_bytes (fun () ->
        M.submit mux ~now:0.0 ~instance:Live.Frame.max_instance ~proposal:1)
  in
  Alcotest.(check int) "decided" 2 (M.decided_count mux);
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %.0f B (< 1 MiB)" grew)
    true
    (grew < 1048576.0)

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

let test_loopback_kill_deterministic () =
  (* The in-process halt path: p1's engine stops at its kill budget with
     the allowed prefix flushed, its fds close like a SIGKILL's, and its
     peers read that prefix, then EOF.  Two storms agree on all of it. *)
  let kill = { Serve.Report.node = 1; after_frames = 57 } in
  let a = storm 200 ~kill and b = storm 200 ~kill in
  let realized (r : Serve.Report.t) =
    match r.Serve.Report.victim with
    | Some (1, rs) -> rs
    | _ -> Alcotest.fail "p1 did not halt"
  in
  Alcotest.(check bool) "crash points realized" true (realized a <> []);
  Alcotest.(check bool) "identical realized lists" true
    (realized a = realized b);
  Alcotest.(check bool) "identical victim stats" true
    (List.assoc 1 a.Serve.Report.stats = List.assoc 1 b.Serve.Report.stats);
  let obs (r : Serve.Report.t) =
    ( r.Serve.Report.ok,
      r.Serve.Report.completed,
      r.Serve.Report.undecided,
      r.Serve.Report.total.Serve.Stats.frames_out,
      r.Serve.Report.total.Serve.Stats.write_calls,
      r.Serve.Report.total.Serve.Stats.expired_rounds,
      r.Serve.Report.latency )
  in
  Alcotest.(check bool) "judge-clean" true a.Serve.Report.ok;
  Alcotest.(check bool) "identical report observables" true (obs a = obs b)

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

let test_evloop_wait_allocates_zero () =
  (* Four readable socketpairs, one writable: once the arrays are built,
     a wait over the unchanged registry allocates nothing; a changed
     interest is picked up by the next wait. *)
  let pairs = List.init 4 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let ev = Serve.Evloop.create () in
  List.iter
    (fun (a, b) ->
      Unix.set_nonblock a;
      Serve.Evloop.register ev a ~read:true ~write:false;
      ignore (Unix.write b (Bytes.of_string "x") 0 1))
    pairs;
  let handle _ ~readable:_ ~writable:_ = () in
  let wait () = Serve.Evloop.wait ev ~timeout:0.0 ~handle in
  Alcotest.(check int) "four ready" 4 (wait ());
  let before = Gc.minor_words () in
  let ready = wait () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "still four ready" 4 ready;
  let words_of_nothing =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "a warm wait allocates nothing" words_of_nothing
    words;
  let a, _ = List.hd pairs in
  Serve.Evloop.register ev a ~read:false ~write:true;
  let seen = ref [] in
  ignore
    (Serve.Evloop.wait ev ~timeout:0.0 ~handle:(fun fd ~readable ~writable ->
         if fd = a then seen := (readable, writable) :: !seen));
  Alcotest.(check (list (pair bool bool))) "new interest, next wait"
    [ (false, true) ] !seen;
  List.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    pairs

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

let test_outq_lanes_switch_between_whole_chunks () =
  (* Lane 1's chunk is cut by a full socket buffer; a drain of lane 0
     must finish it before writing its own bytes, or the two lanes'
     frames interleave on the wire. *)
  let a, b = sendbuf_pair () in
  let q = Serve.Outq.create ~lanes:2 () in
  let big = 256 * 1024 in
  let push lane c len =
    Serve.Outq.push ~lane q
      (Serve.Outq.chunk ~recycle:ignore (Bytes.make len c) ~len)
  in
  push 1 'c' big;
  Alcotest.(check bool) "lane 1 is cut" true
    (Serve.Outq.drain q ~lane:1 a = `Blocked);
  push 0 'd' 16;
  let received = Buffer.create big in
  let rbuf = Bytes.create 65536 in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "lane 0 never drained"
    else begin
      let k = Unix.read b rbuf 0 (Bytes.length rbuf) in
      Buffer.add_subbytes received rbuf 0 k;
      match Serve.Outq.drain q ~lane:0 a with
      | `Empty -> ()
      | `Blocked -> pump (guard - 1)
      | `Closed why -> Alcotest.fail why
    end
  in
  pump 1_000;
  Unix.set_nonblock b;
  (try
     while true do
       let k = Unix.read b rbuf 0 (Bytes.length rbuf) in
       Buffer.add_subbytes received rbuf 0 k
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Alcotest.(check string) "lane 1's whole chunk, then lane 0's"
    (String.make big 'c' ^ String.make 16 'd')
    (Buffer.contents received);
  Alcotest.(check bool) "every lane empty" true (Serve.Outq.is_empty q);
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

(* --- Batch ------------------------------------------------------------------- *)

let test_batch_dropped_sends_are_not_writes () =
  (* A [`Done] send is a dropped buffer (no client, dead peer): it costs
     no write(2), so it must not count as one, batched or not. *)
  List.iter
    (fun batch ->
      let stats = Serve.Stats.create () in
      let b =
        Serve.Batch.create ~n:2 ~batch ~stats ~send:(fun ~dest:_ _ ~len:_ ->
            `Done)
      in
      Serve.Batch.add b ~dest:1 "frame-to-a-dead-peer";
      Serve.Batch.add b ~dest:0 "decide-nobody-reads";
      Serve.Batch.flush b;
      Alcotest.(check int) "frames counted" 2 stats.Serve.Stats.frames_out;
      Alcotest.(check int)
        (Printf.sprintf "batch=%b: no write calls" batch)
        0 stats.Serve.Stats.write_calls)
    [ true; false ]

(* Every destination's bytes, in the order the batcher sent them. *)
let batch_capture ~n ~batch =
  let stats = Serve.Stats.create () in
  let got = Array.make (n + 1) [] in
  let b =
    Serve.Batch.create ~n ~batch ~stats ~send:(fun ~dest bytes ~len ->
        got.(dest) <- Bytes.sub_string bytes 0 len :: got.(dest);
        `Done)
  in
  (b, stats, fun dest -> String.concat "" (List.rev got.(dest)))

let test_batch_add_frame_matches_add () =
  (* [add_frame], reusing bytes for a repeated frame (also into the same
     buffer while it grows, and across a flush), writes and counts exactly
     what [add] of each frame's encoding does. *)
  let data = Live.Frame.Data { instance = 70000; round = 1; payload = "\x00\x00\x00\x09" } in
  let ctl = Live.Frame.Ctl { instance = 70000; round = 1 } in
  let big = Live.Frame.Data { instance = 3; round = 2; payload = String.make 5000 'p' } in
  let plan =
    [ (2, data); (3, data); (3, data); (1, big); (1, big); (3, ctl); (2, ctl); (0, ctl) ]
  in
  List.iter
    (fun batch ->
      let b1, s1, got1 = batch_capture ~n:3 ~batch in
      let b2, s2, got2 = batch_capture ~n:3 ~batch in
      let run add = List.iter (fun (dest, f) -> add ~dest f) plan in
      run (fun ~dest f -> Serve.Batch.add_frame b1 ~dest f);
      Serve.Batch.flush b1;
      run (fun ~dest f -> Serve.Batch.add_frame b1 ~dest f);
      Serve.Batch.flush b1;
      run (fun ~dest f -> Serve.Batch.add b2 ~dest (Live.Frame.encode f));
      Serve.Batch.flush b2;
      run (fun ~dest f -> Serve.Batch.add b2 ~dest (Live.Frame.encode f));
      Serve.Batch.flush b2;
      for dest = 0 to 3 do
        Alcotest.(check string)
          (Printf.sprintf "batch=%b: bytes to %d" batch dest)
          (got2 dest) (got1 dest)
      done;
      Alcotest.(check int) "frames" s2.Serve.Stats.frames_out s1.Serve.Stats.frames_out;
      Alcotest.(check int) "bytes" s2.Serve.Stats.bytes_out s1.Serve.Stats.bytes_out;
      Alcotest.(check int) "max batch" s2.Serve.Stats.max_batch s1.Serve.Stats.max_batch)
    [ true; false ]

let test_batch_round_allocates_zero () =
  (* A coordinator's round at n=5 as [Mux.send_round] emits it: one Data
     value to p2..p5, then one Ctl value to p5..p2. *)
  let stats = Serve.Stats.create () in
  let b =
    Serve.Batch.create ~n:5 ~batch:true ~stats ~send:(fun ~dest:_ _ ~len:_ ->
        `Done)
  in
  let data = Live.Frame.Data { instance = 4242; round = 1; payload = "\x00\x00\x00\x07" } in
  let ctl = Live.Frame.Ctl { instance = 4242; round = 1 } in
  let round () =
    for dest = 2 to 5 do
      Serve.Batch.add_frame b ~dest data
    done;
    for dest = 5 downto 2 do
      Serve.Batch.add_frame b ~dest ctl
    done;
    Serve.Batch.flush b
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  round () (* warm *);
  Alcotest.(check (float 0.0)) "4 Data + 4 Ctl + flush allocate nothing"
    (words ignore) (words round);
  Alcotest.(check int) "frames" 16 stats.Serve.Stats.frames_out

(* --- Socket fleet ------------------------------------------------------------ *)

let fleet_workspace tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let fleet_config ?(n = 3) ?(t = 1) ?(window = 16) ?(batch = true) ?kill
    ?(respawn = false) ?(respawn_budget = 3) ?(respawn_backoff = 0.1)
    ?(wal = false) ?(chaos = []) ~tag instances =
  let dir = fleet_workspace tag in
  {
    Serve.Fleet.n;
    t;
    transport = `Unix dir;
    workspace = dir;
    instances;
    window;
    big_d = 0.3;
    batch;
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

let test_wal_disagreements_forged () =
  (* Two forged logs of one workspace disagree on instance 1 only; p3
     never wrote a log, which reads as empty. *)
  let dir = fleet_workspace "wal-disagree" in
  let forge node entries =
    let path = Serve.Wal.path ~dir ~node in
    (try Sys.remove path with Sys_error _ -> ());
    match Serve.Wal.recover ~path ~node with
    | Error e -> Alcotest.fail e
    | Ok (w, _) ->
      List.iter
        (fun (instance, value, round) ->
          Serve.Wal.append w ~instance ~value ~round)
        entries;
      Serve.Wal.close w
  in
  forge 1 [ (0, 5, 1); (1, 6, 1); (2, 7, 2) ];
  forge 2 [ (0, 5, 1); (1, 9, 2); (2, 7, 2) ];
  (try Sys.remove (Serve.Wal.path ~dir ~node:3) with Sys_error _ -> ());
  match Serve.Wal.disagreements ~dir ~n:3 with
  | Error e -> Alcotest.fail e
  | Ok k -> Alcotest.(check int) "one instance disagrees" 1 k

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

let test_wal_cursor_resumes () =
  (* A cursor reads the log as committed when it was made, one slice per
     [next], resuming inside a frame split across two slices; a later
     commit is not part of it. *)
  let path = wal_tmp "cursor" in
  (try Sys.remove path with Sys_error _ -> ());
  match Serve.Wal.recover ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok (w, _) ->
    let k = 10_000 in
    for i = 0 to k - 1 do
      Serve.Wal.add w ~instance:i ~value:(3 * i) ~round:(1 + (i mod 2))
    done;
    ignore (Serve.Wal.commit w);
    let c = Serve.Wal.cursor w in
    Serve.Wal.append w ~instance:k ~value:0 ~round:1;
    let got = ref [] and slices = ref 1 in
    let f ~instance ~value ~round =
      got := { Serve.Wal.instance; value; round } :: !got
    in
    while Serve.Wal.next c f do
      incr slices
    done;
    let logged = wal_entries path in
    Alcotest.(check int) "the later commit is in the file" (k + 1)
      (List.length logged);
    Alcotest.(check bool) "exactly the log as it was" true
      (List.rev !got = List.filteri (fun i _ -> i < k) logged);
    Alcotest.(check bool) "several slices" true (!slices > 1);
    Alcotest.(check bool) "an ended cursor reads nothing" false
      (Serve.Wal.next c (fun ~instance:_ ~value:_ ~round:_ ->
           Alcotest.fail "read past its end"));
    Serve.Wal.close w

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

let test_wal_torn_batch_sweep () =
  (* A group commit writes many frames with one write: a crash can tear
     it anywhere.  Every cut and every flipped byte keeps exactly the
     whole frames before the damage, and a recovered log extends with
     add + commit as cleanly as with append. *)
  let path = wal_tmp "batch" in
  (try Sys.remove path with Sys_error _ -> ());
  let single = { Serve.Wal.instance = 0; value = 1; round = 1 } in
  let batch =
    List.init 40 (fun i ->
        { Serve.Wal.instance = 1 + (i * 37); value = 300 + i; round = 1 + (i mod 3) })
  in
  let entries = single :: batch in
  (match Serve.Wal.recover ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok (w, _) ->
    Serve.Wal.append w ~instance:0 ~value:1 ~round:1;
    List.iter
      (fun (e : Serve.Wal.entry) ->
        Serve.Wal.add w ~instance:e.instance ~value:e.value ~round:e.round)
      batch;
    Alcotest.(check int) "one commit, forty entries" 40 (Serve.Wal.commit w);
    Alcotest.(check int) "nothing left to commit" 0 (Serve.Wal.commit w);
    Serve.Wal.close w);
  let bytes = read_file path in
  (* [ends.(k)]: the byte offset where entry [k]'s frame ends *)
  let ends =
    let off = ref 12 in
    Array.of_list
      (List.map
         (fun (e : Serve.Wal.entry) ->
           off :=
             !off
             + String.length
                 (Live.Frame.encode
                    (Live.Frame.Decide
                       { instance = e.instance; value = e.value; round = e.round }));
           !off)
         entries)
  in
  Alcotest.(check int) "frames tile the file" (String.length bytes)
    ends.(Array.length ends - 1);
  let whole_before len =
    List.filteri (fun k _ -> ends.(k) <= len) entries
  in
  let cut = wal_tmp "batch-cut" in
  for len = 12 to String.length bytes - 1 do
    write_file cut (String.sub bytes 0 len);
    match Serve.Wal.recover ~path:cut ~node:1 with
    | Error e -> Alcotest.fail (Printf.sprintf "recover at %dB: %s" len e)
    | Ok (w, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%dB: exactly the whole frames" len)
        true
        (r.Serve.Wal.entries = whole_before len);
      Serve.Wal.add w ~instance:999 ~value:1 ~round:1;
      Serve.Wal.add w ~instance:998 ~value:0 ~round:2;
      ignore (Serve.Wal.commit w);
      Serve.Wal.close w;
      Alcotest.(check bool)
        (Printf.sprintf "%dB: add + commit extends the truncated log" len)
        true
        (wal_entries cut
        = whole_before len
          @ [
              { Serve.Wal.instance = 999; value = 1; round = 1 };
              { Serve.Wal.instance = 998; value = 0; round = 2 };
            ])
  done;
  let flip = wal_tmp "batch-flip" in
  for pos = 12 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    write_file flip (Bytes.to_string b);
    (* the damaged frame is the first whose end lies past [pos] *)
    let damaged = List.filteri (fun k _ -> ends.(k) <= pos) entries in
    Alcotest.(check bool)
      (Printf.sprintf "flip %d: exactly the frames before it" pos)
      true
      (wal_entries flip = damaged)
  done

(* A WAL-backed mux as the engine wires it: [persist] stages into the
   log the mux reads back; the test plays the loop's commit. *)
let wal_mux tag =
  let path = wal_tmp ("mux-" ^ tag) in
  (try Sys.remove path with Sys_error _ -> ());
  let w =
    match Serve.Wal.recover ~path ~node:1 with
    | Ok (w, _) -> w
    | Error e -> Alcotest.fail e
  in
  let out = ref [] in
  let mux =
    M.create
      { Serve.Mux.me = 1; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~persist:(Serve.Wal.add w) ~log:w
      ~emit:(fun ~dest f ->
        match f with
        | Live.Frame.Decide _ | Live.Frame.Catchup _ -> out := (dest, f) :: !out
        | _ -> ())
      ()
  in
  let commit () =
    ignore (Serve.Wal.commit w);
    M.committed mux
  in
  (* p1 coordinates round 1, so each submit decides on the spot. *)
  let decide_upto k =
    for i = 0 to k - 1 do
      M.submit mux ~now:0.0 ~instance:i ~proposal:(1000 + i)
    done
  in
  (w, mux, out, commit, decide_upto)

let test_mux_spilled_resubmit_from_log () =
  let w, mux, out, commit, decide_upto = wal_mux "spill" in
  decide_upto ((2 * chunk) + 100);
  Alcotest.(check int) "nothing spills before the commit" 0
    (M.spilled_chunks mux);
  commit ();
  Alcotest.(check int) "two complete chunks spilled" 2 (M.spilled_chunks mux);
  let first =
    List.find_map
      (function 0, Live.Frame.Decide { instance = 0; _ } as d -> Some d | _ -> None)
      !out
  in
  out := [];
  M.submit mux ~now:1.0 ~instance:0 ~proposal:5;
  M.submit mux ~now:1.0 ~instance:0 ~proposal:5;
  Alcotest.(check int) "spilled answers wait for the turn's log pass" 0
    (List.length !out);
  commit ();
  Alcotest.(check bool) "the same Decide, once, from the log" true
    (first <> None && !out = Option.to_list first);
  Alcotest.(check int) "never re-run" ((2 * chunk) + 100)
    (M.stats mux).Serve.Stats.decides;
  Serve.Wal.close w

(* A whole catch-up, stepped to its end marker; returns its count. *)
let catchup_all mux ~peer =
  let c = M.catchup mux ~peer in
  let rec go () = match M.catchup_step mux c with `More -> go () | `Done k -> k in
  go ()

let test_mux_catchup_after_spill () =
  (* A rejoining peer's catch-up streams from the log once chunks have
     spilled: its count is the whole decided table, and the rejoiner
     adopts every decision. *)
  let w, mux, out, commit, decide_upto = wal_mux "catchup" in
  decide_upto ((2 * chunk) + 100);
  commit ();
  Alcotest.(check int) "spilled" 2 (M.spilled_chunks mux);
  out := [];
  let count = catchup_all mux ~peer:2 in
  Alcotest.(check int) "count = decided" (M.decided_count mux) count;
  let frames = List.rev !out in
  (match List.rev frames with
  | (2, Live.Frame.Catchup { instance = 0; value; round = 0 }) :: rest ->
    Alcotest.(check int) "marker carries the count" count value;
    Alcotest.(check int) "one frame per decision" count (List.length rest)
  | _ -> Alcotest.fail "catch-up must end with its marker");
  let rejoiner =
    M.create
      { Serve.Mux.me = 2; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest:_ _ -> ())
      ()
  in
  List.iter (fun (_, f) -> M.on_view rejoiner ~now:0.0 ~from:1 (view_of_frame f)) frames;
  Alcotest.(check int) "rejoiner adopted all" count (M.decided_count rejoiner);
  Serve.Wal.close w

let test_mux_catchup_streams_in_slices () =
  (* A catch-up is paced by its owner: each step emits one log read (at
     most 64 KiB of frames) or one table chunk, never the whole history,
     and the end marker follows the last slice exactly once. *)
  let w, mux, out, commit, decide_upto = wal_mux "catchup-slices" in
  let total = (2 * chunk) + 100 in
  decide_upto total;
  commit ();
  out := [];
  let c = M.catchup mux ~peer:2 in
  Alcotest.(check int) "starting emits nothing" 0 (List.length !out);
  let rec steps k =
    match M.catchup_step mux c with
    | `More ->
      let bytes =
        List.fold_left
          (fun acc (_, f) -> acc + String.length (Live.Frame.encode f))
          0 !out
      in
      (* 64 KiB read, plus the rest of a frame the last read split *)
      Alcotest.(check bool) "a step sends one slice of the log" true
        (bytes > 0 && bytes <= 65536 + 64);
      out := [];
      steps (k + 1)
    | `Done n ->
      Alcotest.(check int) "count = decided" total n;
      k + 1
  in
  let k = steps 0 in
  Alcotest.(check bool) "the log took several steps" true (k > 1);
  out := [];
  Alcotest.(check bool) "done stays done" true
    (M.catchup_step mux c = `Done total && !out = []);
  Serve.Wal.close w;
  (* Without a log the table streams one chunk per step. *)
  let sent = ref [] in
  let mux =
    M.create
      { Serve.Mux.me = 1; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
      ~emit:(fun ~dest f ->
        match f with Live.Frame.Catchup _ -> sent := (dest, f) :: !sent | _ -> ())
      ()
  in
  for i = 0 to total - 1 do
    M.submit mux ~now:0.0 ~instance:i ~proposal:(1000 + i)
  done;
  let c = M.catchup mux ~peer:3 in
  let per_step = ref [] in
  let rec go () =
    let r = M.catchup_step mux c in
    per_step := List.length !sent :: !per_step;
    sent := [];
    match r with `More -> go () | `Done n -> n
  in
  Alcotest.(check int) "table count" total (go ());
  Alcotest.(check (list int)) "one chunk per step, then the marker"
    [ chunk; chunk; 100; 1 ] (List.rev !per_step)

let test_mux_coordinator_dies_before_fsync () =
  (* The crash window of the engine's order: p1 coordinates round 1, and
     its Data/Ctl frames leave before the turn's fsync.  Here they are
     delivered and p1 dies with its decisions only staged.  The peers
     decide p1's values; p1, recovered from a log that holds none of
     them, must adopt exactly those values from a peer's catch-up and
     answer a re-Submit with them.  [persist] sees every decision a node
     takes on, so no node may ever hold a second value. *)
  let cfg me =
    { Serve.Mux.me; n = 3; t = 1; big_d = 1.0; max_rounds = 2; kill_after = None }
  in
  let path = wal_tmp "coordinator-dies" in
  (try Sys.remove path with Sys_error _ -> ());
  let open_wal () =
    match Serve.Wal.reopen ~path ~node:1 with
    | Ok (w, _) -> w
    | Error e -> Alcotest.fail e
  in
  let holds = Hashtbl.create 16 in
  let hold node ~instance ~value ~round:_ =
    match Hashtbl.find_opt holds (node, instance) with
    | Some v when v <> value ->
      Alcotest.failf "p%d holds instance %d as %d and %d" node instance v value
    | _ -> Hashtbl.replace holds (node, instance) value
  in
  (* Frames each node emitted, oldest first once reversed. *)
  let wire = Array.make 4 [] in
  let node ?wal me =
    let persist ~instance ~value ~round =
      hold me ~instance ~value ~round;
      Option.iter (fun w -> Serve.Wal.add w ~instance ~value ~round) wal
    in
    M.create (cfg me) ~persist ?log:wal
      ~emit:(fun ~dest f -> wire.(me) <- (dest, f) :: wire.(me))
      ()
  in
  let take me =
    let frames = List.rev wire.(me) in
    wire.(me) <- [];
    frames
  in
  let deliver ~from frames ~to_:(dest, mux) =
    List.iter
      (fun (d, f) -> if d = dest then M.on_view mux ~now:0.0 ~from (view_of_frame f))
      frames
  in
  let instances = [ 0; 1; 2; 3 ] in
  let w = open_wal () in
  let p1 = node ~wal:w 1 and p2 = node 2 and p3 = node 3 in
  List.iter
    (fun i ->
      M.submit p2 ~now:0.0 ~instance:i ~proposal:(200 + i);
      M.submit p3 ~now:0.0 ~instance:i ~proposal:(300 + i);
      M.submit p1 ~now:0.0 ~instance:i ~proposal:(100 + i))
    instances;
  let sent = take 1 in
  Alcotest.(check int) "p1 decided every instance, staged only"
    (List.length instances) (M.stats p1).Serve.Stats.decides;
  deliver ~from:1 sent ~to_:(2, p2);
  deliver ~from:1 sent ~to_:(3, p3);
  List.iter
    (fun i ->
      List.iter
        (fun me ->
          Alcotest.(check (option int))
            (Printf.sprintf "p%d decided instance %d from p1's frames" me i)
            (Some (100 + i))
            (Hashtbl.find_opt holds (me, i)))
        [ 2; 3 ])
    instances;
  (* The kill: the staged entries never reach the file. *)
  Serve.Wal.close w;
  Alcotest.(check int) "nothing durable" 0 (List.length (wal_entries path));
  let w = open_wal () in
  let p1 = node ~wal:w 1 in
  Serve.Wal.iter w (M.seed_decision p1);
  ignore (catchup_all p2 ~peer:1);
  ignore (catchup_all p3 ~peer:1);
  deliver ~from:2 (take 2) ~to_:(1, p1);
  deliver ~from:3 (take 3) ~to_:(1, p1);
  ignore (Serve.Wal.commit w);
  M.committed p1;
  ignore (take 1);
  List.iter (fun i -> M.submit p1 ~now:1.0 ~instance:i ~proposal:(900 + i)) instances;
  let answers = take 1 in
  List.iter
    (fun i ->
      let to_clients =
        List.filter_map
          (function
            | 0, Live.Frame.Decide d when d.instance = i -> Some d.value
            | _ -> None)
          answers
      in
      Alcotest.(check (list int))
        (Printf.sprintf "re-Submit of instance %d answered with the peers' value" i)
        [ 100 + i ] to_clients)
    instances;
  Alcotest.(check bool) "no mesh frame: adopted, never re-run" true
    (List.for_all (fun (d, _) -> d = 0) answers);
  Alcotest.(check (list (pair int int)))
    "the recovered log holds the peers' values"
    (List.map (fun i -> (i, 100 + i)) instances)
    (List.sort compare
       (List.map
          (fun (e : Serve.Wal.entry) -> (e.instance, e.value))
          (wal_entries path)));
  Serve.Wal.close w

(* The per-decision path at n = 5, as the engine drives it: p1 takes the
   turn's Submits (it coordinates round 1, so each decides on the spot)
   and flushes its batch; p2 takes the same Submits, then p1's Data and
   Ctl frames as decoded views.  Each turn ends with [committed].  Once
   the slab, the batch buffers and the decision chunk are warm, a cycle
   of 64 instances may allocate only a few words per decision: the
   frame values a round emits and the algorithm's fresh state. *)
let alloc_window = 64

let alloc_bound = 60.0

let test_mux_steady_state_allocation () =
  let cfg me =
    { Serve.Mux.me; n = 5; t = 2; big_d = 1.0; max_rounds = 3; kill_after = None }
  in
  let node me =
    let stats = Serve.Stats.create () in
    let batch =
      Serve.Batch.create ~n:5 ~batch:true ~stats ~send:(fun ~dest:_ _ ~len:_ ->
          `Done)
    in
    let mux =
      M.create (cfg me)
        ~emit:(fun ~dest f -> Serve.Batch.add_frame batch ~dest f)
        ()
    in
    (mux, batch)
  in
  let p1, b1 = node 1 and p2, b2 = node 2 in
  let dec = Live.Frame.decoder () in
  (* p1's round-1 frames toward p2, encoded ahead of the measured turn. *)
  let wire base =
    String.concat ""
      (List.concat_map
         (fun i ->
           let instance = base + i in
           [
             Live.Frame.encode
               (Live.Frame.Data
                  {
                    instance;
                    round = 1;
                    payload = Serve.Binding.Rwwc.encode_msg (Core.Rwwc.Data instance);
                  });
             Live.Frame.encode (Live.Frame.Ctl { instance; round = 1 });
           ])
         (List.init alloc_window Fun.id))
  in
  let p1_turn base =
    for i = base to base + alloc_window - 1 do
      M.submit p1 ~now:0.0 ~instance:i ~proposal:i
    done;
    Serve.Batch.flush b1;
    M.committed p1
  in
  let p2_turn base bytes =
    for i = base to base + alloc_window - 1 do
      M.submit p2 ~now:0.0 ~instance:i ~proposal:(i + 1)
    done;
    Live.Frame.feed dec bytes ~pos:0 ~len:(String.length bytes);
    let rec drain () =
      match Live.Frame.pop_view dec with
      | `View v ->
        M.on_view p2 ~now:0.0 ~from:1 v;
        drain ()
      | `Need_more -> ()
      | `Corrupt why -> Alcotest.fail why
    in
    drain ();
    Serve.Batch.flush b2;
    M.committed p2
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let cycle k =
    let base = k * alloc_window in
    let bytes = wire base in
    let w1 = words (fun () -> p1_turn base) in
    let w2 = words (fun () -> p2_turn base bytes) in
    (w1, w2)
  in
  for k = 0 to 7 do
    ignore (cycle k)
  done;
  let w1, w2 = cycle 8 in
  let per w = w /. float_of_int alloc_window in
  Alcotest.(check int) "p1 decided every instance" (9 * alloc_window)
    (M.stats p1).Serve.Stats.decides;
  Alcotest.(check int) "p2 decided every instance" (9 * alloc_window)
    (M.stats p2).Serve.Stats.decides;
  Alcotest.(check bool)
    (Printf.sprintf "p1 (coordinator) allocates %.1f words per decision (<= %.0f)"
       (per w1) alloc_bound)
    true
    (per w1 <= alloc_bound);
  Alcotest.(check bool)
    (Printf.sprintf "p2 (receiver) allocates %.1f words per decision (<= %.0f)"
       (per w2) alloc_bound)
    true
    (per w2 <= alloc_bound)

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

let test_engine_catchup_past_peer_hwm () =
  (* A rejoining peer's catch-up longer than the peer high-water mark
     (8 MiB, about 420k decisions): the engine must stream it whole, never
     cutting the peer off for the backlog it queued itself. *)
  let dir = fleet_workspace "catchup-hwm" in
  let path = Serve.Wal.path ~dir ~node:1 in
  (try Sys.remove path with Sys_error _ -> ());
  let total = 450_000 in
  (match Serve.Wal.recover ~path ~node:1 with
  | Error e -> Alcotest.fail e
  | Ok (w, _) ->
    for i = 0 to total - 1 do
      Serve.Wal.add w ~instance:i ~value:(i land 0xffff) ~round:1
    done;
    ignore (Serve.Wal.commit w);
    Serve.Wal.close w);
  let sock = Filename.concat dir "p1.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let log = open_out (Filename.concat dir "p1.log") in
  let e =
    Serve.Engine.Rwwc.create ~clock:Unix.gettimeofday ~listen:lfd
      ~peers:(Array.make 3 None) ~clients:[]
      {
        Serve.Engine.me = 1;
        n = 3;
        t = 1;
        transport = `Unix dir;
        big_d = 0.25;
        max_rounds = 2;
        batch = true;
        kill_after = None;
        linger = true;
        wal_dir = Some dir;
        rejoin = true;
        dial = None;
        status = log;
        log;
      }
  in
  let p2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect p2 (Unix.ADDR_UNIX sock);
  let hello = Live.Frame.encode (Live.Frame.Hello { node = 2 }) in
  ignore (Unix.write_substring p2 hello 0 (String.length hello));
  Unix.set_nonblock p2;
  let dec = Live.Frame.decoder () in
  let buf = Bytes.create 65536 in
  let got = ref 0 and marker = ref None and closed = ref false in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while !marker = None && (not !closed) && Unix.gettimeofday () < deadline do
    ignore (Serve.Engine.Rwwc.step e ~timeout:0.0);
    let rec read () =
      match Unix.read p2 buf 0 (Bytes.length buf) with
      | 0 -> closed := true
      | k ->
        Live.Frame.feed dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
        read ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    read ();
    let rec pop () =
      match Live.Frame.pop_view dec with
      | `View v when v.Live.Frame.kind = Live.Frame.K_catchup ->
        if v.Live.Frame.round = 0 then marker := Some v.Live.Frame.value
        else incr got;
        pop ()
      | `View _ -> pop ()
      | `Need_more | `Corrupt _ -> ()
    in
    pop ()
  done;
  let stats = Serve.Engine.Rwwc.stats e in
  Serve.Engine.Rwwc.close e;
  Unix.close p2;
  close_out log;
  Alcotest.(check int) "never cut off for its own backlog" 0
    stats.Serve.Stats.overflow_kills;
  Alcotest.(check (option int)) "end marker carries the whole log"
    (Some total) !marker;
  Alcotest.(check int) "every decision arrived" total !got


(* --- The rejoin gate, on a clock that never moves ------------------------ *)

(* p1 of three over a real listen socket, with a socketpair link to each
   peer in [reached]; the test holds the far ends ([far.(p - 1)]). *)
let gate_rig ~tag ~rejoin ~reached =
  let dir = fleet_workspace ("gate-" ^ tag) in
  let sock = Filename.concat dir "p1.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let peers = Array.make 3 None and far = Array.make 3 None in
  List.iter
    (fun p ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      peers.(p - 1) <- Some a;
      far.(p - 1) <- Some b)
    reached;
  let log = open_out (Filename.concat dir "p1.log") in
  let e =
    Serve.Engine.Rwwc.create ~clock:(fun () -> 0.0) ~listen:lfd ~peers
      ~clients:[]
      {
        Serve.Engine.me = 1;
        n = 3;
        t = 1;
        transport = `Unix dir;
        big_d = 0.25;
        max_rounds = 2;
        batch = true;
        kill_after = None;
        linger = true;
        wal_dir = None;
        rejoin;
        dial = None;
        status = log;
        log;
      }
  in
  let finish () =
    Serve.Engine.Rwwc.close e;
    Array.iter
      (Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()))
      far;
    close_out log;
    try Sys.remove sock with Sys_error _ -> ()
  in
  (e, sock, far, finish)

(* A client that says Hello and submits one instance at once. *)
let gate_client sock ~instance =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  send fd
    (Live.Frame.encode (Live.Frame.Hello { node = 0 })
    ^ Live.Frame.encode (Live.Frame.Submit { instance; proposal = 7 }));
  Unix.set_nonblock fd;
  fd

let gate_turns e k =
  for _ = 1 to k do
    ignore (Serve.Engine.Rwwc.step e ~timeout:0.0)
  done

let gate_submits e = (Serve.Engine.Rwwc.stats e).Serve.Stats.submits

(* Whether the engine closed the client's connection. *)
let gate_refused fd =
  let buf = Bytes.create 256 in
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false

let end_marker =
  Live.Frame.encode (Live.Frame.Catchup { instance = 0; value = 0; round = 0 })

let test_gate_refuses_while_closed () =
  (* Regression: a rejoining engine held a client's Submits unread while
     its peers' catch-ups were under way, then started them once the
     gate opened — behind peers that had started them at once. *)
  let e, sock, far, finish = gate_rig ~tag:"closed" ~rejoin:true ~reached:[ 2; 3 ] in
  Fun.protect ~finally:finish (fun () ->
      let c = gate_client sock ~instance:5 in
      gate_turns e 5;
      Alcotest.(check bool) "a client accepted while the gate is closed reads EOF"
        true (gate_refused c);
      Alcotest.(check int) "its Submit is not started" 0 (gate_submits e);
      List.iter (fun p -> send (Option.get far.(p - 1)) end_marker) [ 2; 3 ];
      gate_turns e 5;
      Alcotest.(check int) "nor once the gate opens" 0 (gate_submits e);
      Unix.close c)

let test_gate_marker_or_death_opens () =
  (* Each reached peer's share of the gate completes with its end marker
     or its death; no timer is involved, the clock never moves. *)
  let e, sock, far, finish = gate_rig ~tag:"opens" ~rejoin:true ~reached:[ 2; 3 ] in
  Fun.protect ~finally:finish (fun () ->
      send (Option.get far.(1)) end_marker;
      Unix.close (Option.get far.(2));
      far.(2) <- None;
      gate_turns e 3;
      let c = gate_client sock ~instance:5 in
      gate_turns e 5;
      Alcotest.(check bool) "a client accepted after the gate opened is served"
        false (gate_refused c);
      Alcotest.(check int) "its Submit is started" 1 (gate_submits e);
      Unix.close c)

let test_gate_no_peer_refuses_backlog () =
  (* A rejoin that reached no peer still starts gated: a client waiting
     in the listen backlog through the dials is accepted on the first
     turn and refused; one that connects after it is served. *)
  let e, sock, _, finish = gate_rig ~tag:"no-peer" ~rejoin:true ~reached:[] in
  Fun.protect ~finally:finish (fun () ->
      let early = gate_client sock ~instance:5 in
      gate_turns e 5;
      Alcotest.(check bool) "the backlog's client reads EOF" true
        (gate_refused early);
      Alcotest.(check int) "its Submit is not started" 0 (gate_submits e);
      let late = gate_client sock ~instance:6 in
      gate_turns e 5;
      Alcotest.(check bool) "a later client is served" false (gate_refused late);
      Alcotest.(check int) "its Submit is started" 1 (gate_submits e);
      Unix.close early;
      Unix.close late)

let test_gate_fresh_engine_serves () =
  (* A fresh engine has no gate: the backlog's client is served at once. *)
  let e, sock, _, finish = gate_rig ~tag:"fresh" ~rejoin:false ~reached:[ 2; 3 ] in
  Fun.protect ~finally:finish (fun () ->
      let c = gate_client sock ~instance:5 in
      gate_turns e 5;
      Alcotest.(check bool) "served" false (gate_refused c);
      Alcotest.(check int) "its Submit is started" 1 (gate_submits e);
      Unix.close c)

(* --- Drain order: the extended round at the write boundary -------------- *)

(* p1 of five, the round-1 coordinator, over socketpair links: the test
   holds p1's end of each peer link ([near.(p - 1)]), to fill it, and the
   far end ([far.(p - 1)]), to read what p1 wrote. *)
type order_rig = {
  engine : Serve.Engine.Rwwc.t;
  near : Unix.file_descr option array;
  far : Unix.file_descr option array;
  decs : Live.Frame.decoder array;
  got : Live.Frame.kind list array;  (* mesh frames each peer read, in order *)
  client : Unix.file_descr;
  finish : unit -> unit;
}

let order_rig ?kill_after ~tag () =
  let dir = fleet_workspace ("order-" ^ tag) in
  let near = Array.make 5 None and far = Array.make 5 None in
  for p = 2 to 5 do
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock a;
    Unix.set_nonblock b;
    near.(p - 1) <- Some a;
    far.(p - 1) <- Some b
  done;
  let c, client = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let log = open_out (Filename.concat dir "p1.log") in
  let engine =
    Serve.Engine.Rwwc.create ~clock:(fun () -> 0.0) ~peers:near ~clients:[ c ]
      {
        Serve.Engine.me = 1;
        n = 5;
        t = 2;
        transport = `Unix dir;
        big_d = 0.25;
        max_rounds = 3;
        batch = true;
        kill_after;
        linger = true;
        wal_dir = None;
        rejoin = false;
        dial = None;
        status = log;
        log;
      }
  in
  let finish () =
    Serve.Engine.Rwwc.close engine;
    Array.iter
      (Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()))
      far;
    Unix.close client;
    close_out log
  in
  {
    engine;
    near;
    far;
    decs = Array.init 5 (fun _ -> Live.Frame.decoder ());
    got = Array.make 5 [];
    client;
    finish;
  }

(* Fill p1's end of its link to [p] with Hello frames until the kernel
   refuses more: p1's next write to [p] blocks until the test reads. *)
let order_fill r p =
  let hello = Live.Frame.encode (Live.Frame.Hello { node = 1 }) in
  let fd = Option.get r.near.(p - 1) in
  let rec go () =
    match Unix.write_substring fd hello 0 (String.length hello) with
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* Read everything waiting at each far end; the fill's Hellos are
   skipped. *)
let order_read r =
  let buf = Bytes.create 65536 in
  for p = 2 to 5 do
    let fd = Option.get r.far.(p - 1) and dec = r.decs.(p - 1) in
    let rec read () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | k ->
        Live.Frame.feed dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
        read ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    read ();
    let rec pop () =
      match Live.Frame.pop_view dec with
      | `View v ->
        if v.Live.Frame.kind <> Live.Frame.K_hello then
          r.got.(p - 1) <- r.got.(p - 1) @ [ v.Live.Frame.kind ];
        pop ()
      | `Need_more -> ()
      | `Corrupt why -> Alcotest.fail why
    in
    pop ()
  done

let order_turns r k =
  for _ = 1 to k do
    ignore (Serve.Engine.Rwwc.step r.engine ~timeout:0.0)
  done;
  order_read r

let order_ctls r peers =
  List.fold_left
    (fun acc p ->
      acc + List.length (List.filter (( = ) Live.Frame.K_ctl) r.got.(p - 1)))
    0 peers

let order_submit r =
  send r.client
    (Live.Frame.encode (Live.Frame.Submit { instance = 1; proposal = 7 }))

let order_whole_round r =
  for p = 2 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "p%d read its Data, then its Ctl" p)
      true
      (r.got.(p - 1) = [ Live.Frame.K_data; Live.Frame.K_ctl ])
  done

let test_order_no_ctl_while_data_blocked () =
  (* Regression: one pass wrote each peer's Data and Ctl in turn, so with
     p2's Data stuck p3..p5 already held round 1's commit — a kill then
     left p2 with neither, a piggybacked commit. *)
  let r = order_rig ~tag:"data" () in
  Fun.protect ~finally:r.finish (fun () ->
      order_fill r 2;
      order_submit r;
      order_turns r 3;
      Alcotest.(check int) "no peer reads a Ctl while p2's Data is blocked" 0
        (order_ctls r [ 2; 3; 4; 5 ]);
      Alcotest.(check int) "p2's Data is blocked" 0 (List.length r.got.(1));
      Alcotest.(check int) "p3..p5 read their Data" 3
        (List.length
           (List.filter (fun p -> r.got.(p - 1) = [ Live.Frame.K_data ]) [ 3; 4; 5 ]));
      order_turns r 3;
      order_whole_round r)

let test_order_ctl_prefix_descending () =
  (* Every Data has passed, but p5, first in the control step's order,
     cannot take its Ctl: p4..p2 must not get theirs before it does. *)
  let r = order_rig ~tag:"ctl" () in
  Fun.protect ~finally:r.finish (fun () ->
      order_fill r 2;
      order_submit r;
      order_turns r 3;
      order_fill r 5;
      order_turns r 3;
      Alcotest.(check int) "p4..p2 get no Ctl while p5's is blocked" 0
        (order_ctls r [ 2; 3; 4 ]);
      Alcotest.(check bool) "p2 read its Data" true
        (r.got.(1) = [ Live.Frame.K_data ]);
      order_turns r 3;
      order_whole_round r)

let test_order_submit_and_round_in_one_turn () =
  (* p2's client Submit and p1's round-1 Data + Ctl for the same instance
     are all readable when p2 turns.  Clients are read first, so the
     frames find the instance open: it decides in that turn, and nothing
     is parked for a later Submit. *)
  let dir = fleet_workspace "order-turn" in
  let near = Array.make 5 None and far = Array.make 5 None in
  List.iter
    (fun p ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      near.(p - 1) <- Some a;
      far.(p - 1) <- Some b)
    [ 1; 3; 4; 5 ];
  let c, client = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let log = open_out (Filename.concat dir "p2.log") in
  let engine =
    Serve.Engine.Rwwc.create ~clock:(fun () -> 0.0) ~peers:near ~clients:[ c ]
      {
        Serve.Engine.me = 2;
        n = 5;
        t = 2;
        transport = `Unix dir;
        big_d = 0.25;
        max_rounds = 3;
        batch = true;
        kill_after = None;
        linger = true;
        wal_dir = None;
        rejoin = false;
        dial = None;
        status = log;
        log;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Engine.Rwwc.close engine;
      Array.iter
        (Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()))
        far;
      Unix.close client;
      close_out log)
    (fun () ->
      let payload = Serve.Binding.Rwwc.encode_msg (Core.Rwwc.Data 41) in
      send (Option.get far.(0))
        (Live.Frame.encode (Live.Frame.Data { instance = 1; round = 1; payload })
        ^ Live.Frame.encode (Live.Frame.Ctl { instance = 1; round = 1 }));
      send client
        (Live.Frame.encode (Live.Frame.Submit { instance = 1; proposal = 7 }));
      ignore (Serve.Engine.Rwwc.step engine ~timeout:0.0);
      Alcotest.(check int) "nothing parked" 0 (Serve.Engine.Rwwc.parked engine);
      Alcotest.(check int) "decided in the turn" 1
        (Serve.Engine.Rwwc.stats engine).Serve.Stats.decides;
      let decide =
        Live.Frame.encode (Live.Frame.Decide { instance = 1; value = 41; round = 1 })
      in
      Alcotest.(check string) "the client got p1's value"
        decide
        (read_exact ~deadline:(Live.Sockets.now () +. 2.0) client
           (String.length decide)))

let test_halt_drains_through_the_loop () =
  (* Regression: the halting turn flushed the kill budget's prefix with a
     blocking writer that waited up to 2 s on a full link before it
     reported [`Halted] — a loopback pass stalled that long, and a
     victim closed at the deadline dropped the prefix [realized] says
     was delivered.  Now the halted engine keeps turning with the same
     nonblocking pumps until every queue has reached the kernel.  p1's
     budget of 2 covers its round-1 Data to p2 and p3; p2's link is
     full. *)
  let r = order_rig ~kill_after:2 ~tag:"halt" () in
  Fun.protect ~finally:r.finish (fun () ->
      order_fill r 2;
      order_submit r;
      for turn = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        let status = Serve.Engine.Rwwc.step r.engine ~timeout:0.0 in
        let took = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf
             "turn %d returns within 0.5 s (%.2f s), still `Running"
             turn took)
          true
          (took < 0.5 && status = `Running)
      done;
      order_read r;
      let halts =
        List.init 2 (fun _ -> Serve.Engine.Rwwc.step r.engine ~timeout:0.0)
      in
      Alcotest.(check bool) "once p2 reads, later turns report `Halted" true
        (List.for_all (( = ) `Halted) halts);
      order_read r;
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "p%d read exactly one Data" p)
            true
            (r.got.(p - 1) = [ Live.Frame.K_data ]))
        [ 2; 3 ];
      List.iter
        (fun p ->
          Alcotest.(check int) (Printf.sprintf "p%d read nothing" p) 0
            (List.length r.got.(p - 1)))
        [ 4; 5 ];
      Alcotest.(check int) "no peer read a Ctl" 0 (order_ctls r [ 2; 3; 4; 5 ]);
      Alcotest.(check bool) "realized: instance 1 cut at r1, data=2" true
        (Serve.Engine.Rwwc.realized r.engine
        = [
            {
              Serve.Mux.instance = 1;
              round = 1;
              phase = Live.Script.During_data 2;
            };
          ]))

(* --- TCP on its own: what a close with unread bytes leaves the peer ----- *)

let tcp_pair () =
  let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 1;
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect a (Unix.getsockname l);
  let b, _ = Unix.accept l in
  Unix.close l;
  (a, b)

(* The [i]th frame A writes. *)
let tcp_frame i =
  Live.Frame.encode (Live.Frame.Data { instance = i; round = 1; payload = "v" })

(* A, with bytes from B it never read, writes [frames] of them (all, or
   [None]: until the kernel refuses more) and closes — a close with
   unread input sends RST.  The bytes A's writes took, and the frames B
   reads afterwards (their instances, in order) with how B's reads end. *)
let tcp_close_unread ~frames =
  let a, b = tcp_pair () in
  Fun.protect
    ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring b "unread" 0 6);
      (match Unix.select [ a ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "B's bytes never reached A"
      | _ -> ());
      Unix.set_nonblock a;
      let written = ref 0 and i = ref 0 and pending = ref "" in
      let more () = match frames with Some k -> !i < k | None -> true in
      let rec write () =
        if !pending = "" && more () then begin
          pending := tcp_frame !i;
          incr i
        end;
        if !pending <> "" then
          match Unix.write_substring a !pending 0 (String.length !pending) with
          | k ->
            written := !written + k;
            pending := String.sub !pending k (String.length !pending - k);
            write ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
      in
      write ();
      Unix.close a;
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 5.0;
      let dec = Live.Frame.decoder () and buf = Bytes.create 65536 in
      let rec read got =
        match Unix.read b buf 0 (Bytes.length buf) with
        | 0 -> (got, `Eof)
        | k ->
          Live.Frame.feed dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
          read (got + k)
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> (got, `Reset)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "B's read timed out"
      in
      let got, ending = read 0 in
      let rec pop acc =
        match Live.Frame.pop_view dec with
        | `View v -> pop (v.Live.Frame.instance :: acc)
        | `Need_more -> List.rev acc
        | `Corrupt why -> Alcotest.fail why
      in
      (!written, got, pop [], ending))

let test_tcp_rst_keeps_what_arrived () =
  (* What B's kernel already holds survives A's RST: B reads every byte
     A wrote, then ECONNRESET instead of EOF. *)
  let written, got, instances, ending = tcp_close_unread ~frames:(Some 10) in
  Alcotest.(check bool) "A's close sent RST" true (ending = `Reset);
  Alcotest.(check int) "B read every byte A wrote" written got;
  Alcotest.(check (list int)) "every frame, in order" (List.init 10 Fun.id)
    instances

let test_tcp_rst_drops_unsent () =
  (* Bytes A's writes took that still sat in A's send queue — B's
     receive window was full — die with the RST: a writer can lose what
     [write(2)] accepted.  B keeps an in-order prefix. *)
  let written, got, instances, ending = tcp_close_unread ~frames:None in
  Alcotest.(check bool) "A's close sent RST" true (ending = `Reset);
  Alcotest.(check bool)
    (Printf.sprintf "B read %d of the %d bytes A wrote" got written)
    true
    (got > 0 && got < written);
  Alcotest.(check (list int)) "B's frames are a prefix"
    (List.init (List.length instances) Fun.id)
    instances

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

let test_fleet_client_decides_are_durable ~batch () =
  (* Durable before revealed, checked from outside the engines: across a
     mid-storm kill and respawn, every Decide the client received from
     node k is in node k's log, and no two logs (nor two entries of one
     log) hold different values for an instance.  And the order that
     allows: p1 coordinates round 1 and decides in the turn that sends
     its Data/Ctl, so those peer writes leave ahead of the turn's fsync
     (committing before the mesh pump reads 0 here). *)
  let tag = if batch then "durable-batch" else "durable-nobatch" in
  let cfg =
    fleet_config ~tag ~n:3 ~t:1 ~batch ~respawn:true
      ~kill:{ Serve.Report.node = 1; after_frames = 57 }
      200
  in
  match
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        storm_drive ~reconnect:true cfg ~on_idle)
  with
  | Error e -> Alcotest.fail e
  | Ok (outcome, mesh) ->
    (match List.assoc_opt 1 mesh.Serve.Fleet.node_stats with
    | None -> Alcotest.fail "no stats from p1"
    | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "p1: %d fsyncs, %d peer writes ahead of them"
           s.Serve.Stats.wal_appends s.Serve.Stats.presync_writes)
        true
        (s.Serve.Stats.wal_appends > 0 && s.Serve.Stats.presync_writes > 0));
    let durable = Hashtbl.create 256 in
    let shared = ref 0 in
    for node = 1 to cfg.Serve.Fleet.n do
      let path = Serve.Wal.path ~dir:cfg.Serve.Fleet.workspace ~node in
      let logged = Hashtbl.create 256 in
      (match Serve.Wal.load ~path ~node with
      | Error e -> Alcotest.fail e
      | Ok r ->
        List.iter
          (fun (e : Serve.Wal.entry) ->
            (match Hashtbl.find_opt durable e.instance with
            | Some (value, other) when value <> e.value ->
              Alcotest.failf "instance %d: p%d logged %d, p%d logged %d"
                e.instance other value node e.value
            | Some (_, other) -> if other <> node then incr shared
            | None -> ());
            Hashtbl.replace durable e.instance (e.value, node);
            Hashtbl.replace logged e.instance (e.value, e.round))
          r.Serve.Wal.entries);
      let seen = ref 0 in
      Array.iteri
        (fun instance row ->
          match row.(node - 1) with
          | None -> ()
          | Some answer ->
            incr seen;
            if Hashtbl.find_opt logged instance <> Some answer then
              Alcotest.fail
                (Printf.sprintf "p%d told the client about instance %d, \
                                 which its log does not hold"
                   node instance))
        outcome.Serve.Client.decisions;
      Alcotest.(check bool)
        (Printf.sprintf "p%d answered the client" node)
        true (!seen > 0)
    done;
    Alcotest.(check bool)
      (Printf.sprintf "the logs overlap (%d shared entries)" !shared)
      true (!shared > 0)

let test_fleet_reused_workspace_starts_fresh () =
  (* Regression: a new fleet in a workspace an earlier fleet left its
     WALs in answered from them — the second run failed most judged
     instances (live 36@r2 against abstract 36@r1).  A fresh engine
     replaces the log it finds, so the second run starts clean. *)
  let cfg =
    fleet_config ~tag:"reused-wal" ~n:5 ~t:3 ~respawn:true
      ~kill:{ Serve.Report.node = 1; after_frames = 57 }
      200
  in
  for node = 1 to cfg.Serve.Fleet.n do
    try Sys.remove (Serve.Wal.path ~dir:cfg.Serve.Fleet.workspace ~node)
    with Sys_error _ -> ()
  done;
  List.iter
    (fun label ->
      match Serve.Fleet.run cfg with
      | Error e -> Alcotest.fail (label ^ ": " ^ e)
      | Ok r ->
        Alcotest.(check int)
          (label ^ ": no judge failures")
          0
          (List.length r.Serve.Report.failures);
        Alcotest.(check int) (label ^ ": completed") 200 r.Serve.Report.completed;
        Alcotest.(check int)
          (label ^ ": the WALs agree")
          0 r.Serve.Report.wal_disagreements)
    [ "first fleet"; "second fleet, same workspace" ]

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* Bring a fleet up, run a short storm on it, tear it down; the seconds
   from the call to the first moment the drive runs. *)
let bring_up cfg =
  let t0 = Unix.gettimeofday () in
  let up = ref nan in
  match
    Serve.Fleet.with_mesh cfg (fun ~on_idle ~kill:_ ->
        up := Unix.gettimeofday () -. t0;
        storm_drive cfg ~on_idle)
  with
  | Error e -> Alcotest.fail e
  | Ok (outcome, _) ->
    Alcotest.(check bool) "every node decided every instance" true
      (Array.for_all (Array.for_all Option.is_some)
         outcome.Serve.Client.decisions);
    !up

let test_fleet_bind_leaves_no_fd () =
  (* The parent binds every listener before it forks: its copies must be
     closed again, over either transport. *)
  let unix = fleet_config ~tag:"bind-fds" 10 in
  let tcp =
    { unix with Serve.Fleet.transport = `Tcp (20000 + (Unix.getpid () mod 20000)) }
  in
  List.iter
    (fun (label, cfg) ->
      let before = fd_count () in
      ignore (bring_up cfg);
      Alcotest.(check int) (label ^ ": fd count unchanged") before (fd_count ()))
    [ ("unix", unix); ("tcp", tcp) ]

let test_fleet_bring_up_without_backoff () =
  (* Regression: each engine bound its listener in its own child, so a
     lower id dialed before a higher one had bound and slept in the
     dial backoff (10-30 ms) — every fleet start paid it. *)
  let cfg = fleet_config ~tag:"bring-up" ~n:5 ~t:2 10 in
  let ups = List.sort compare (List.init 5 (fun _ -> bring_up cfg)) in
  let median = List.nth ups 2 in
  Alcotest.(check bool)
    (Printf.sprintf "median n = 5 bring-up %.1f ms is under 10 ms"
       (median *. 1000.0))
    true (median < 0.010)

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
          QCheck_alcotest.to_alcotest prop_slab_matches_map;
        ] );
      ( "decided",
        [
          Alcotest.test_case "spill-rule" `Quick test_decided_spill_rule;
          Alcotest.test_case "insert-never-rehashes" `Quick
            test_decided_insert_never_rehashes;
        ] );
      ( "mux",
        [
          Alcotest.test_case "early-frames" `Quick test_mux_early_frames;
          Alcotest.test_case "deadline-fallback" `Quick test_mux_deadline_fallback;
          Alcotest.test_case "resubmit-served-from-log" `Quick
            test_mux_resubmit_served_from_log;
          Alcotest.test_case "far-instance-bounded" `Quick
            test_mux_far_instance_bounded;
          Alcotest.test_case "spilled-resubmit-from-log" `Quick
            test_mux_spilled_resubmit_from_log;
          Alcotest.test_case "catchup-after-spill" `Quick
            test_mux_catchup_after_spill;
          Alcotest.test_case "catchup-streams-in-slices" `Quick
            test_mux_catchup_streams_in_slices;
          Alcotest.test_case "coordinator-dies-before-fsync" `Quick
            test_mux_coordinator_dies_before_fsync;
          Alcotest.test_case "steady-state-allocation" `Quick
            test_mux_steady_state_allocation;
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
          Alcotest.test_case "kill-deterministic" `Quick
            test_loopback_kill_deterministic;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "poll-backend" `Quick test_evloop_poll;
          Alcotest.test_case "hangup-masked-to-interest" `Quick
            test_evloop_hangup_masked;
          Alcotest.test_case "wait-allocates-zero" `Quick
            test_evloop_wait_allocates_zero;
          QCheck_alcotest.to_alcotest prop_poll_matches_model;
        ] );
      ( "outq",
        [
          Alcotest.test_case "partial-write-resume" `Quick
            test_outq_partial_write_resume;
          Alcotest.test_case "refcounted-broadcast" `Quick
            test_outq_refcounted_broadcast;
          Alcotest.test_case "hwm-and-clear" `Quick test_outq_hwm_and_clear;
          Alcotest.test_case "lanes-switch-between-whole-chunks" `Quick
            test_outq_lanes_switch_between_whole_chunks;
        ] );
      ( "batch",
        [
          Alcotest.test_case "dropped-sends-not-writes" `Quick
            test_batch_dropped_sends_are_not_writes;
          Alcotest.test_case "add-frame-matches-add" `Quick
            test_batch_add_frame_matches_add;
          Alcotest.test_case "round-allocates-zero" `Quick
            test_batch_round_allocates_zero;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          QCheck_alcotest.to_alcotest prop_wal_roundtrip;
          Alcotest.test_case "cursor-resumes" `Quick test_wal_cursor_resumes;
          Alcotest.test_case "truncation-sweep" `Quick
            test_wal_truncation_sweep;
          Alcotest.test_case "byte-flip-sweep" `Quick test_wal_byte_flip_sweep;
          Alcotest.test_case "torn-batch-sweep" `Quick test_wal_torn_batch_sweep;
          Alcotest.test_case "disagreements-forged" `Quick
            test_wal_disagreements_forged;
        ] );
      ( "gate",
        [
          Alcotest.test_case "refuses-while-closed" `Quick
            test_gate_refuses_while_closed;
          Alcotest.test_case "marker-or-death-opens" `Quick
            test_gate_marker_or_death_opens;
          Alcotest.test_case "no-peer-refuses-backlog" `Quick
            test_gate_no_peer_refuses_backlog;
          Alcotest.test_case "fresh-engine-serves" `Quick
            test_gate_fresh_engine_serves;
        ] );
      ( "order",
        [
          Alcotest.test_case "no-ctl-while-data-blocked" `Quick
            test_order_no_ctl_while_data_blocked;
          Alcotest.test_case "ctl-prefix-descending" `Quick
            test_order_ctl_prefix_descending;
          Alcotest.test_case "submit-and-round-in-one-turn" `Quick
            test_order_submit_and_round_in_one_turn;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "rst-keeps-what-arrived" `Quick
            test_tcp_rst_keeps_what_arrived;
          Alcotest.test_case "rst-drops-unsent" `Quick test_tcp_rst_drops_unsent;
        ] );
      ( "halt",
        [
          Alcotest.test_case "drains-through-the-loop" `Quick
            test_halt_drains_through_the_loop;
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
          Alcotest.test_case "catchup-past-peer-hwm" `Slow
            test_engine_catchup_past_peer_hwm;
          Alcotest.test_case "respawn-recovers" `Slow
            test_fleet_respawn_recovers;
          Alcotest.test_case "client-decides-durable-batched" `Slow
            (test_fleet_client_decides_are_durable ~batch:true);
          Alcotest.test_case "client-decides-durable-unbatched" `Slow
            (test_fleet_client_decides_are_durable ~batch:false);
          Alcotest.test_case "chaos-safe-cut" `Slow test_fleet_chaos_safe_cut;
          Alcotest.test_case "soak-kill-storm-runs-full-duration" `Slow
            test_soak_kill_storm_runs_full_duration;
          Alcotest.test_case "reused-workspace-starts-fresh" `Slow
            test_fleet_reused_workspace_starts_fresh;
          Alcotest.test_case "bind-leaves-no-fd" `Slow
            test_fleet_bind_leaves_no_fd;
          Alcotest.test_case "bring-up-without-backoff" `Slow
            test_fleet_bring_up_without_backoff;
        ] );
    ]

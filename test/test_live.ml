(* The live multi-process runtime: wire codec, crash scripts, the
   deterministic loopback engine, the judge, and a real-socket smoke run
   with a scripted mid-round process kill. *)

open Model

(* --- CRC-32 ---------------------------------------------------------------- *)

let test_crc_vectors () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Live.Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Live.Crc32.string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Live.Crc32.string "a")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let first = Live.Crc32.digest s ~pos:0 ~len:split in
  let rest =
    Live.Crc32.digest ~init:first s ~pos:split ~len:(String.length s - split)
  in
  Alcotest.(check int32) "streaming = one-shot" (Live.Crc32.string s) rest

(* --- Frames ---------------------------------------------------------------- *)

let frames =
  [
    Live.Frame.Hello { node = 3 };
    Live.Frame.Data { instance = 0; round = 2; payload = "\x00\x00\x00\x2a" };
    Live.Frame.Ctl { instance = 0; round = 7 };
    Live.Frame.Data { instance = 12345; round = 1; payload = "" };
    Live.Frame.Ctl { instance = Live.Frame.max_instance; round = 4 };
    Live.Frame.Submit { instance = 9; proposal = 42 };
    Live.Frame.Decide { instance = 130; value = 7; round = 2 };
  ]

let pop_frame d =
  match Live.Frame.pop d with
  | `Frame f -> f
  | `Need_more -> Alcotest.fail "decoder wanted more bytes"
  | `Corrupt why -> Alcotest.fail ("decoder corrupt: " ^ why)

let test_frame_roundtrip () =
  let d = Live.Frame.decoder () in
  List.iter
    (fun f -> Live.Frame.feed_string d (Live.Frame.encode f))
    frames;
  List.iter
    (fun expected ->
      let got = pop_frame d in
      Alcotest.(check bool)
        (Format.asprintf "%a" Live.Frame.pp expected)
        true
        (Live.Frame.equal expected got))
    frames;
  Alcotest.(check int) "drained" 0 (Live.Frame.buffered d)

let test_frame_byte_by_byte () =
  (* Feeding one byte at a time exercises every Need_more path. *)
  let wire = String.concat "" (List.map Live.Frame.encode frames) in
  let d = Live.Frame.decoder () in
  let popped = ref [] in
  String.iter
    (fun c ->
      Live.Frame.feed d (String.make 1 c) ~pos:0 ~len:1;
      let rec drain () =
        match Live.Frame.pop d with
        | `Frame f ->
          popped := f :: !popped;
          drain ()
        | `Need_more -> ()
        | `Corrupt why -> Alcotest.fail ("corrupt: " ^ why)
      in
      drain ())
    wire;
  Alcotest.(check int) "all frames" (List.length frames) (List.length !popped);
  List.iter2
    (fun a b -> Alcotest.(check bool) "frame equal" true (Live.Frame.equal a b))
    frames
    (List.rev !popped)

let test_frame_truncated_tail () =
  (* A killed sender leaves a partial frame in flight: the decoder must
     neither produce a frame nor report corruption — the bytes simply never
     complete. *)
  let wire =
    Live.Frame.encode
      (Live.Frame.Data { instance = 3; round = 1; payload = "abcd" })
  in
  let d = Live.Frame.decoder () in
  Live.Frame.feed d wire ~pos:0 ~len:(String.length wire - 3);
  (match Live.Frame.pop d with
  | `Need_more -> ()
  | `Frame _ -> Alcotest.fail "truncated frame decoded"
  | `Corrupt _ -> Alcotest.fail "truncated frame misread as corruption")

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_frame_corruption () =
  let wire =
    Bytes.of_string
      (Live.Frame.encode (Live.Frame.Ctl { instance = 1; round = 3 }))
  in
  (* Flip one body byte: the CRC must catch it. *)
  Bytes.set wire 6 (Char.chr (Char.code (Bytes.get wire 6) lxor 0x40));
  let d = Live.Frame.decoder () in
  Live.Frame.feed_string d (Bytes.to_string wire);
  (match Live.Frame.pop d with
  | `Corrupt why ->
    Alcotest.(check bool) "mentions CRC" true
      (contains ~affix:"CRC" why || contains ~affix:"kind" why)
  | `Frame _ -> Alcotest.fail "corrupt frame decoded"
  | `Need_more -> Alcotest.fail "corrupt frame ignored");
  (* Corruption is sticky. *)
  match Live.Frame.pop d with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "corruption not sticky"

let test_frame_bad_magic () =
  (* Anything but 0xFA 0xD0 is a bad magic, including the retired v1 (0xCE)
     and v2 (0xCF) version bytes in front of an otherwise valid frame. *)
  let v3 = Live.Frame.encode (Live.Frame.Hello { node = 1 }) in
  let retired b = "\xFA" ^ String.make 1 b ^ String.sub v3 2 (String.length v3 - 2) in
  List.iter
    (fun bytes ->
      let d = Live.Frame.decoder () in
      Live.Frame.feed_string d bytes;
      match Live.Frame.pop d with
      | `Corrupt why ->
        Alcotest.(check bool) "reported as bad magic" true
          (contains ~affix:"magic" why)
      | `Frame _ | `Need_more -> Alcotest.fail "bad magic accepted")
    [ "nonsense bytes"; retired '\xCE'; retired '\xCF' ]

(* The LEB128 boundaries: every value where the varint grows a byte, plus
   the largest id the codec admits. *)
let instance_edges = [ 0; 1; 127; 128; 16383; 16384; 2097151; 2097152 ]

let test_frame_varint_edges () =
  let d = Live.Frame.decoder () in
  List.iter
    (fun instance ->
      List.iter
        (fun f ->
          Live.Frame.feed_string d (Live.Frame.encode f);
          Alcotest.(check bool)
            (Printf.sprintf "instance %d survives" instance)
            true
            (Live.Frame.equal f (pop_frame d)))
        [
          Live.Frame.Data { instance; round = 1; payload = "x" };
          Live.Frame.Ctl { instance; round = 9 };
          Live.Frame.Submit { instance; proposal = 17 };
          Live.Frame.Decide { instance; value = 3; round = 2 };
        ])
    (instance_edges @ [ Live.Frame.max_instance ]);
  (match
     Live.Frame.encode
       (Live.Frame.Ctl { instance = Live.Frame.max_instance + 1; round = 1 })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted an id beyond max_instance")

let instance_gen =
  QCheck2.Gen.(
    oneof
      [ oneofl instance_edges; int_range 0 Live.Frame.max_instance ])

let frame_gen =
  QCheck2.Gen.(
    instance_gen >>= fun instance ->
    int_range 1 1000 >>= fun round ->
    oneof
      [
        map
          (fun payload -> Live.Frame.Data { instance; round; payload })
          (string_size (int_range 0 24));
        return (Live.Frame.Ctl { instance; round });
        map
          (fun proposal -> Live.Frame.Submit { instance; proposal })
          (int_range 0 100_000);
        map
          (fun value -> Live.Frame.Decide { instance; value; round })
          (int_range 0 100_000);
        map
          (fun value -> Live.Frame.Catchup { instance; value; round })
          (int_range 0 100_000);
      ])

let prop_frame_varint_roundtrip =
  Helpers.qtest ~count:1000 "varint instance ids round-trip at any width"
    frame_gen
    (fun f ->
      let d = Live.Frame.decoder () in
      Live.Frame.feed_string d (Live.Frame.encode f);
      match Live.Frame.pop d with
      | `Frame g when Live.Frame.equal f g -> Live.Frame.buffered d = 0
      | `Frame g ->
        QCheck2.Test.fail_reportf "decoded %a from %a" Live.Frame.pp g
          Live.Frame.pp f
      | `Need_more -> QCheck2.Test.fail_reportf "incomplete after full frame"
      | `Corrupt why -> QCheck2.Test.fail_reportf "corrupt: %s" why)

(* Many instances interleaved on one stream, delivered in awkward chunk
   sizes, with the tail truncated as a kill would leave it: the decoder
   yields exactly the complete prefix and never reports corruption. *)
let prop_frame_fuzz_interleaved_truncation =
  Helpers.qtest ~count:400 "interleaved streams survive chunking + truncation"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 12) frame_gen)
        (int_range 1 9) (int_range 0 40))
    (fun (fs, chunk, cut) ->
      let wire = String.concat "" (List.map Live.Frame.encode fs) in
      let keep = max 0 (String.length wire - cut) in
      let d = Live.Frame.decoder () in
      let pos = ref 0 in
      while !pos < keep do
        let len = min chunk (keep - !pos) in
        Live.Frame.feed d wire ~pos:!pos ~len;
        pos := !pos + len
      done;
      let rec drain acc =
        match Live.Frame.pop d with
        | `Frame f -> drain (f :: acc)
        | `Need_more -> List.rev acc
        | `Corrupt why ->
          QCheck2.Test.fail_reportf "clean truncated stream corrupt: %s" why
      in
      let got = drain [] in
      let rec is_prefix got fs =
        match (got, fs) with
        | [], _ -> true
        | g :: gs, f :: rest -> Live.Frame.equal g f && is_prefix gs rest
        | _ :: _, [] -> false
      in
      if not (is_prefix got fs) then
        QCheck2.Test.fail_reportf "decoded frames are not a prefix"
      else if cut = 0 && List.length got <> List.length fs then
        QCheck2.Test.fail_reportf "untruncated stream lost %d frames"
          (List.length fs - List.length got)
      else true)

(* Corruption fuzz: flip one byte anywhere in a multi-instance stream.  The
   decoder may deliver the frames before the damage, must never invent a
   frame that was not sent, never raises, and once corrupt stays corrupt. *)
let prop_frame_fuzz_corruption =
  Helpers.qtest ~count:400 "a flipped byte never crashes or fabricates frames"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 8) frame_gen)
        small_nat (int_range 1 255))
    (fun (fs, at, delta) ->
      let wire = Bytes.of_string (String.concat "" (List.map Live.Frame.encode fs)) in
      let at = at mod Bytes.length wire in
      Bytes.set wire at (Char.chr (Char.code (Bytes.get wire at) lxor delta));
      let d = Live.Frame.decoder () in
      Live.Frame.feed_string d (Bytes.to_string wire);
      let rec drain acc n =
        if n > List.length fs + 1 then
          QCheck2.Test.fail_reportf "decoder produced too many frames"
        else
          match Live.Frame.pop d with
          | `Frame f -> drain (f :: acc) (n + 1)
          | `Need_more -> `Stopped (List.rev acc)
          | `Corrupt _ -> `Corrupt (List.rev acc)
          | exception e ->
            QCheck2.Test.fail_reportf "pop raised %s" (Printexc.to_string e)
      in
      let sent f = List.exists (Live.Frame.equal f) fs in
      match drain [] 0 with
      | `Stopped got | `Corrupt got ->
        if not (List.for_all sent got) then
          QCheck2.Test.fail_reportf "decoder fabricated a frame"
        else (
          (match Live.Frame.pop d with
          | `Corrupt _ | `Need_more -> ()
          | `Frame _ ->
            QCheck2.Test.fail_reportf "decoder resumed after terminal state");
          true))

let test_retry_wait_jitter_envelope () =
  (* Without a jitter stream the wait is the backoff level itself. *)
  Alcotest.(check (float 1e-9)) "no jitter = identity" 0.08
    (Live.Sockets.retry_wait 0.08);
  (* With one, every draw lands in [0.5b, 1.5b), the stream is
     deterministic in its seed, and it actually spreads — the envelope a
     mass respawn relies on to avoid thundering-herd. *)
  let draws seed =
    let rng = Prng.Rng.of_int seed in
    List.init 200 (fun _ -> Live.Sockets.retry_wait ~jitter:rng 0.08)
  in
  let a = draws 0x5eed in
  List.iter
    (fun w ->
      if w < 0.04 || w >= 0.12 then
        Alcotest.fail (Printf.sprintf "wait %.5f outside [0.04, 0.12)" w))
    a;
  Alcotest.(check bool) "deterministic per seed" true (a = draws 0x5eed);
  Alcotest.(check bool) "spread across the envelope" true
    (List.length (List.sort_uniq compare a) > 100)

let prop_frame_view_equivalence =
  Helpers.qtest ~count:500 "pop_view sees exactly what pop sees"
    QCheck2.Gen.(list_size (int_range 1 10) frame_gen)
    (fun fs ->
      let wire = String.concat "" (List.map Live.Frame.encode fs) in
      let d1 = Live.Frame.decoder () and d2 = Live.Frame.decoder () in
      Live.Frame.feed_string d1 wire;
      Live.Frame.feed_string d2 wire;
      List.iter
        (fun _ ->
          match (Live.Frame.pop d1, Live.Frame.pop_view d2) with
          | `Frame f, `View v ->
            if not (Live.Frame.equal f (Live.Frame.frame_of_view v)) then
              QCheck2.Test.fail_reportf "view disagrees with pop on %a"
                Live.Frame.pp f
          | _ -> QCheck2.Test.fail_reportf "decoders diverged")
        fs;
      Live.Frame.buffered d2 = 0)

(* --- Scripts --------------------------------------------------------------- *)

let kill_eq : Live.Script.kill Alcotest.testable =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Live.Script.kill_to_string k))
    ( = )

let test_script_parse () =
  List.iter
    (fun (s, expected) ->
      match Live.Script.parse_kill s with
      | Ok k -> Alcotest.check kill_eq s expected k
      | Error why -> Alcotest.fail why)
    [
      ( "p1@r1:data=2",
        { Live.Script.pid = Pid.of_int 1; round = 1; phase = Live.Script.During_data 2 } );
      ( "p2@r2:ctl=1",
        { Live.Script.pid = Pid.of_int 2; round = 2; phase = Live.Script.During_ctl 1 } );
      ( "p3@r1:before",
        { Live.Script.pid = Pid.of_int 3; round = 1; phase = Live.Script.Before_send } );
      ( "p4@r3:after",
        { Live.Script.pid = Pid.of_int 4; round = 3; phase = Live.Script.After_send } );
    ]

let test_script_parse_rejects () =
  List.iter
    (fun s ->
      match Live.Script.parse_kill s with
      | Error _ -> ()
      | Ok k ->
        Alcotest.fail
          (Printf.sprintf "%S parsed as %s" s (Live.Script.kill_to_string k)))
    [ ""; "p1"; "p1@r1"; "p1@r1:later"; "p0@r1:before"; "px@r1:after";
      "p1@r0:before"; "p1@rx:after"; "p1@r1:data=-1"; "p1@r1:data=x" ]

let test_script_roundtrip () =
  List.iter
    (fun k ->
      match Live.Script.parse_kill (Live.Script.kill_to_string k) with
      | Ok k' -> Alcotest.check kill_eq "print/parse" k k'
      | Error why -> Alcotest.fail why)
    (Live.Script.default ~n:5 ~f:3)

let test_script_validate () =
  let k pid round phase = { Live.Script.pid = Pid.of_int pid; round; phase } in
  (match
     Live.Script.validate ~n:4 ~max_kills:2
       [ k 1 1 (Live.Script.During_data 1); k 2 2 (Live.Script.During_ctl 1) ]
   with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  (match
     Live.Script.validate ~n:4 ~max_kills:2
       [ k 5 1 Live.Script.Before_send ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "pid out of range accepted");
  (match
     Live.Script.validate ~n:4 ~max_kills:1
       [ k 1 1 Live.Script.Before_send; k 2 1 Live.Script.Before_send ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "too many kills accepted");
  match
    Live.Script.validate ~n:4 ~max_kills:3
      [ k 1 1 Live.Script.Before_send; k 1 2 Live.Script.After_send ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate victim accepted"

let test_writes_completed () =
  Alcotest.(check int) "before" 0
    (Live.Script.writes_completed Live.Script.Before_send ~data:4 ~ctl:4);
  Alcotest.(check int) "data=2" 2
    (Live.Script.writes_completed (Live.Script.During_data 2) ~data:4 ~ctl:4);
  Alcotest.(check int) "data clamp" 4
    (Live.Script.writes_completed (Live.Script.During_data 9) ~data:4 ~ctl:4);
  Alcotest.(check int) "ctl=1" 5
    (Live.Script.writes_completed (Live.Script.During_ctl 1) ~data:4 ~ctl:4);
  Alcotest.(check int) "after" 8
    (Live.Script.writes_completed Live.Script.After_send ~data:4 ~ctl:4)

(* --- Loopback -------------------------------------------------------------- *)

let decisions tr =
  List.map
    (fun (pid, v, r) -> (Pid.to_int pid, v, r))
    (Live.Transcript.decisions tr)

let test_loopback_no_crash () =
  let tr = Live.Loopback.Rwwc.run ~n:5 ~t:3 ~script:[] () in
  Alcotest.(check (list (triple int int int)))
    "everyone decides 1 in round 1"
    [ (1, 1, 1); (2, 1, 1); (3, 1, 1); (4, 1, 1); (5, 1, 1) ]
    (decisions tr);
  let v = Live.Judge.judge ~schedule:Schedule.empty tr in
  Alcotest.(check bool) "judge passes" true v.Live.Judge.ok

(* The acceptance scenario: n = 5, two scripted kills — the round-1
   coordinator dies mid-data-step (2 of 4 data writes), the round-2
   coordinator dies mid-control-step (all data, 1 of 3 commits). *)
let acceptance_script =
  [
    { Live.Script.pid = Pid.of_int 1; round = 1; phase = Live.Script.During_data 2 };
    { Live.Script.pid = Pid.of_int 2; round = 2; phase = Live.Script.During_ctl 1 };
  ]

let test_loopback_acceptance () =
  let tr = Live.Loopback.Rwwc.run ~n:5 ~t:3 ~script:acceptance_script () in
  (* p1's data reaches p2,p3 (prefix 2 of p2..p5): both adopt est 1.  p2
     relays est 1 to everyone, commits only to p5 (prefix 1 of p5,p4,p3):
     p5 decides 1 in round 2.  p3 coordinates round 3 uncrashed: everyone
     left decides 1 in round 3 = f + 1. *)
  Alcotest.(check (list (triple int int int)))
    "survivors decide 1 within f+1 rounds"
    [ (3, 1, 3); (4, 1, 3); (5, 1, 2) ]
    (decisions tr);
  Alcotest.(check int) "f = 2" 2 (Live.Transcript.f_actual tr);
  let schedule =
    Live.Script.to_schedule
      ~send_plan:(Live.Binding.Rwwc.send_plan ~n:5)
      acceptance_script
  in
  let v = Live.Judge.judge ~schedule tr in
  Alcotest.(check bool) "judge passes" true v.Live.Judge.ok;
  match v.Live.Judge.differential with
  | Some (Ok _) -> ()
  | Some (Error why) -> Alcotest.fail why
  | None -> Alcotest.fail "differential skipped on an all-scripted run"

(* Each process's per-round receive counts under the acceptance script
   ([equal_observable] ignores rounds, so only this pins them). *)
let test_loopback_round_observations () =
  let tr = Live.Loopback.Rwwc.run ~n:5 ~t:3 ~script:acceptance_script () in
  let obs =
    Array.to_list tr.Live.Transcript.rounds
    |> List.map
         (List.map (fun (o : Live.Transcript.round_obs) ->
              (o.round, o.data_recv, o.ctl_recv)))
  in
  Alcotest.(check (list (list (triple int int int))))
    "(round, data_recv, ctl_recv) per process"
    [
      [];
      [ (1, 1, 0) ];
      [ (1, 1, 0); (2, 1, 0); (3, 0, 0) ];
      [ (1, 0, 0); (2, 1, 0); (3, 1, 1) ];
      [ (1, 0, 0); (2, 1, 1) ];
    ]
    obs

let test_loopback_deterministic () =
  let run () = Live.Loopback.Rwwc.run ~n:5 ~t:3 ~script:acceptance_script () in
  let a = run () and b = run () in
  Alcotest.(check bool) "byte-identical transcripts" true
    (Live.Transcript.equal_observable a b)

let all_single_kills ~n =
  let phases data ctl =
    [ Live.Script.Before_send; Live.Script.After_send ]
    @ List.init (data + 1) (fun k -> Live.Script.During_data k)
    @ List.init (ctl + 1) (fun k -> Live.Script.During_ctl k)
  in
  List.concat_map
    (fun pid ->
      List.concat_map
        (fun round ->
          let data, ctl =
            let d, c = Live.Binding.Rwwc.send_plan ~n ~me:(Pid.of_int pid) ~round in
            (List.length d, List.length c)
          in
          List.map
            (fun phase -> [ { Live.Script.pid = Pid.of_int pid; round; phase } ])
            (phases data ctl))
        (Pid.range ~lo:1 ~hi:(n - 2) |> List.map Pid.to_int))
    (List.map Pid.to_int (Pid.all ~n))

let test_loopback_differential_sweep () =
  (* Every single-kill script at n = 4 and n = 5: the loopback execution
     must decide exactly like the abstract engine on the realized
     schedule, and pass every uniform-consensus check. *)
  List.iter
    (fun n ->
      let checked = ref 0 in
      List.iter
        (fun script ->
          let tr = Live.Loopback.Rwwc.run ~n ~t:(n - 2) ~script () in
          let schedule =
            Live.Script.to_schedule
              ~send_plan:(Live.Binding.Rwwc.send_plan ~n)
              script
          in
          let v = Live.Judge.judge ~schedule tr in
          incr checked;
          if not v.Live.Judge.ok then
            Alcotest.fail
              (Format.asprintf "n=%d %a:@.%a" n Live.Script.pp script
                 Live.Judge.pp v))
        (all_single_kills ~n);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: swept some scripts" n)
        true (!checked > 20))
    [ 4; 5 ]

let test_loopback_default_scripts () =
  (* The --f presets through every f the resilience allows. *)
  for f = 0 to 3 do
    let script = Live.Script.default ~n:5 ~f in
    let tr = Live.Loopback.Rwwc.run ~n:5 ~t:3 ~script () in
    let schedule =
      Live.Script.to_schedule ~send_plan:(Live.Binding.Rwwc.send_plan ~n:5) script
    in
    let v = Live.Judge.judge ~schedule tr in
    if not v.Live.Judge.ok then
      Alcotest.fail (Format.asprintf "f=%d:@.%a" f Live.Judge.pp v);
    match Sync_sim.Run_result.max_decision_round (Live.Transcript.to_run_result tr) with
    | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "f=%d: decided within f+1" f)
        true (r <= f + 1)
    | None -> Alcotest.fail "nobody decided"
  done

let test_judge_flags_disagreement () =
  (* A fabricated transcript with two different decided values must fail
     the uniform-agreement check — the judge is not a rubber stamp. *)
  let tr = Live.Loopback.Rwwc.run ~n:4 ~t:2 ~script:[] () in
  let statuses = Array.copy tr.Live.Transcript.statuses in
  statuses.(3) <- Live.Transcript.Decided { value = 4; at_round = 1 };
  let forged = { tr with Live.Transcript.statuses = statuses } in
  let v = Live.Judge.judge forged in
  Alcotest.(check bool) "judge fails" false v.Live.Judge.ok

let test_judge_flags_missing_decision () =
  let tr = Live.Loopback.Rwwc.run ~n:4 ~t:2 ~script:[] () in
  let statuses = Array.copy tr.Live.Transcript.statuses in
  statuses.(2) <- Live.Transcript.Undecided;
  let forged = { tr with Live.Transcript.statuses = statuses } in
  let v = Live.Judge.judge forged in
  Alcotest.(check bool) "termination fails" false v.Live.Judge.ok

(* --- Node rounds without a transport ---------------------------------------- *)

module N = Live.Node.Make (Live.Binding.Rwwc)

let test_node_stash_and_late_frames () =
  (* p3 of 3 in round 1 finds a round-2 Data frame and a round-0 Ctl frame
     from p2 in its inbox: the first waits for round 2, the second is
     logged and dropped. *)
  let logged = ref [] in
  let p =
    N.create ~n:3 ~t:1 ~me:3 ~proposal:3 ~kill:None ~log:(fun s ->
        logged := s :: !logged)
  in
  let feed frame = Live.Frame.feed_string (N.inbox p ~from:2) (Live.Frame.encode frame) in
  feed
    (Live.Frame.Data
       {
         instance = 0;
         round = 2;
         payload = Live.Binding.Rwwc.encode_msg (Core.Rwwc.Data 7);
       });
  feed (Live.Frame.Ctl { instance = 0; round = 0 });
  Alcotest.(check (list int)) "round 1: no peer given up" [] (N.receive p ~round:1);
  Alcotest.(check (list string))
    "the round-0 frame is logged"
    [ "late ctl frame (r0) from p2" ]
    !logged;
  let counts (d, c, decision) = (d, c, Option.is_some decision) in
  Alcotest.(check (triple int int bool))
    "round 1 consumes neither frame" (0, 0, false)
    (counts (N.compute p ~round:1));
  Alcotest.(check (list int)) "round 2: no peer given up" [] (N.receive p ~round:2);
  Alcotest.(check (triple int int bool))
    "round 2 consumes the stashed data frame" (1, 0, false)
    (counts (N.compute p ~round:2));
  Alcotest.(check int) "nothing more logged" 1 (List.length !logged)

(* --- Sockets --------------------------------------------------------------- *)

let socket_config ~dir ~n ~script =
  Live.Supervisor.config ~n ~t:(n - 2) ~script
    ~transport:(`Unix dir)
    ~big_d:0.25 ~delta:0.1 ()

let test_socket_smoke () =
  (* One real multi-process run over Unix-domain sockets: n = 4, one
     scripted mid-data-step kill of the round-1 coordinator (the CI smoke
     scenario).  Every survivor must decide and match the abstract
     engine. *)
  let script =
    [ { Live.Script.pid = Pid.of_int 1; round = 1; phase = Live.Script.During_data 1 } ]
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-%d" (Unix.getpid ())) in
  match Live.Supervisor.run (socket_config ~dir ~n:4 ~script) with
  | Error why -> Alcotest.fail ("supervisor: " ^ why)
  | Ok (tr, v) ->
    Alcotest.(check (list (triple int int int)))
      "survivors decide 1 (p2 relays the adopted estimate)"
      [ (2, 1, 2); (3, 1, 2); (4, 1, 2) ]
      (decisions tr);
    if not v.Live.Judge.ok then
      Alcotest.fail (Format.asprintf "judge:@.%a" Live.Judge.pp v)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_sockets_connect_error () =
  (* Nobody listens here: bounded-backoff retry until the deadline, then a
     structured error naming the operation and carrying the errno. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-no-listener-%d.sock" (Unix.getpid ()))
  in
  let t0 = Live.Sockets.now () in
  match
    Live.Sockets.connect_retry ~deadline:(t0 +. 0.3) (Unix.ADDR_UNIX path)
  with
  | Ok _ -> Alcotest.fail "connected to a socket nobody listens on"
  | Error e ->
    Alcotest.(check bool) "honored the deadline" true
      (Live.Sockets.now () -. t0 >= 0.25);
    Alcotest.(check string) "op" "connect" e.Live.Sockets.op;
    Alcotest.(check bool) "carries an errno" true (e.Live.Sockets.errno <> None);
    Alcotest.(check bool) "mentions the deadline" true
      (contains ~sub:"deadline" (Live.Sockets.error_to_string e))

let test_sockets_listen_error () =
  match
    Live.Sockets.listen
      (Unix.ADDR_UNIX "/no-such-directory-anywhere/live-test.sock")
  with
  | Ok _ -> Alcotest.fail "bound into a nonexistent directory"
  | Error e ->
    Alcotest.(check bool) "carries an errno" true (e.Live.Sockets.errno <> None);
    Alcotest.(check bool) "printable" true
      (String.length (Live.Sockets.error_to_string e) > 0)

(* --- Supervisor self-healing events ---------------------------------------- *)

let counting_instrument () =
  let respawns = ref 0 and absorbed = ref 0 in
  let instrument =
    Obs.Instrument.of_fn (function
      | Live.Supervisor.Respawned _ -> incr respawns
      | Live.Supervisor.Absorbed _ -> incr absorbed)
  in
  (instrument, respawns, absorbed)

let chaos_workspace stem =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "live-%s-%d" stem (Unix.getpid ()))

let test_supervisor_respawn_event () =
  (* Node 2 is SIGKILLed right after its first spawn, before readiness: the
     self-healing window must replace it (one Respawned event) and the run
     must still pass the judge. *)
  let instrument, respawns, absorbed = counting_instrument () in
  let cfg =
    Live.Supervisor.config ~n:4 ~t:2 ~script:[]
      ~transport:(`Unix (chaos_workspace "respawn"))
      ~big_d:0.25 ~delta:0.1 ~respawn_budget:2 ~instrument
      ~chaos_startup_kills:[ 2 ] ()
  in
  match Live.Supervisor.run cfg with
  | Error why -> Alcotest.fail ("supervisor: " ^ why)
  | Ok (_, v) ->
    Alcotest.(check int) "one respawn event" 1 !respawns;
    Alcotest.(check int) "no absorption" 0 !absorbed;
    if not v.Live.Judge.ok then
      Alcotest.fail (Format.asprintf "judge:@.%a" Live.Judge.pp v)

let test_supervisor_respawn_budget_exhausted () =
  (* The same node killed twice against a budget of 1: startup must abort
     with a budget error after exactly one respawn attempt. *)
  let instrument, respawns, _ = counting_instrument () in
  let cfg =
    Live.Supervisor.config ~n:4 ~t:2 ~script:[]
      ~transport:(`Unix (chaos_workspace "budget"))
      ~big_d:0.25 ~delta:0.1 ~respawn_budget:1 ~instrument
      ~chaos_startup_kills:[ 2; 2 ] ()
  in
  match Live.Supervisor.run cfg with
  | Ok _ -> Alcotest.fail "run survived an exhausted respawn budget"
  | Error why ->
    Alcotest.(check bool) "names the budget" true
      (contains ~sub:"respawn budget" why);
    Alcotest.(check int) "spent the whole budget" 1 !respawns

let test_supervisor_absorbs_run_kill () =
  (* An unscripted SIGKILL after the mesh is up: the run continues, and the
     death is emitted as an Absorbed event.  The judge may or may not pass
     (the differential schedule doesn't know about the unscripted crash);
     the event accounting is the contract under test. *)
  let instrument, respawns, absorbed = counting_instrument () in
  let cfg =
    Live.Supervisor.config ~n:4 ~t:2 ~script:[]
      ~transport:(`Unix (chaos_workspace "absorb"))
      ~big_d:0.25 ~delta:0.1 ~instrument
      ~chaos_run_kills:[ (4, 0.05) ] ()
  in
  match Live.Supervisor.run cfg with
  | Error why -> Alcotest.fail ("supervisor: " ^ why)
  | Ok (tr, _) ->
    Alcotest.(check int) "no respawn" 0 !respawns;
    Alcotest.(check int) "one absorbed death" 1 !absorbed;
    Alcotest.(check bool) "the dead node shows as crashed" true
      (Live.Transcript.f_actual tr >= 1)

(* --- Children: fork, status pipes, reaping, respawn, teardown -------------- *)

let rec reap_within (c : Live.Children.child) tries =
  match Live.Children.reap c with
  | Some obs -> obs
  | None ->
    if tries = 0 then Alcotest.fail "child never observed dead"
    else begin
      Unix.sleepf 0.01;
      reap_within c (tries - 1)
    end

let no_such_child pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let test_children_stop_killed () =
  let kids = Live.Children.create () in
  let c =
    Live.Children.spawn kids ~id:1 (fun _ ->
        Unix.kill (Unix.getpid ()) Sys.sigstop;
        0)
  in
  Alcotest.(check bool) "reported as Stop_killed" true
    (reap_within c 500 = `Stop_killed);
  Alcotest.(check bool) "no zombie left" true (no_such_child c.pid);
  Alcotest.(check bool) "reported once" true (Live.Children.reap c = None);
  Live.Children.teardown kids

let test_children_fatal () =
  let log = Filename.temp_file "children" ".log" in
  let pid = Live.Children.fork ~log (fun () -> failwith "boom") in
  Alcotest.(check bool) "exit 3" true (Live.Children.wait pid = `Exited 3);
  let ic = open_in log in
  let line = input_line ic in
  close_in ic;
  Sys.remove log;
  Alcotest.(check bool) "fatal line" true
    (contains ~sub:"fatal:" line && contains ~sub:"boom" line)

let test_children_lines () =
  let kids = Live.Children.create () in
  let c =
    Live.Children.spawn kids ~id:7 (fun w ->
        List.iter
          (fun s ->
            ignore (Unix.write_substring w s 0 (String.length s));
            Unix.sleepf 0.03)
          [ "{\"seq\":1}\n{\"se"; "q\":2}\nnot json\n{\"seq\""; ":3}"; "\n" ];
        0)
  in
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while c.status <> None && Unix.gettimeofday () < deadline do
    Live.Children.pump kids ~timeout:0.1 ~on_event:(fun c' j ->
        Alcotest.(check int) "event names its child" 7 c'.id;
        match Obs.Json.member "seq" j with
        | Some (Obs.Json.Int i) -> got := i :: !got
        | _ -> Alcotest.fail "unexpected event")
  done;
  Alcotest.(check (list int)) "whole lines, in order" [ 1; 2; 3 ] (List.rev !got);
  Live.Children.teardown kids

let test_children_teardown () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  let kids = Live.Children.create () in
  let r, w = Unix.pipe () in
  Live.Children.register kids r;
  Live.Children.register kids w;
  let live = Live.Children.spawn kids ~id:1 (fun _ -> Unix.sleepf 60.0; 0) in
  let stopped =
    Live.Children.spawn kids ~id:2 (fun _ ->
        Unix.kill (Unix.getpid ()) Sys.sigstop;
        0)
  in
  let exited = Live.Children.spawn kids ~id:3 (fun _ -> 0) in
  Unix.sleepf 0.2;
  Live.Children.teardown kids;
  List.iter
    (fun (c : Live.Children.child) ->
      Alcotest.(check bool) (Printf.sprintf "child %d reaped" c.id) true
        (c.exit <> None && no_such_child c.pid))
    [ live; stopped; exited ];
  Alcotest.(check int) "every parent fd closed" before (fds ())

let test_children_respawn_budget () =
  Alcotest.(check (list (option (float 1e-9))))
    "delay doubles, then stops at the budget"
    [ Some 0.05; Some 0.1; Some 0.2; None; None ]
    (List.map (Live.Children.respawn_delay ~budget:3 ~base:0.05) [ 0; 1; 2; 3; 4 ]);
  let kids = Live.Children.create () in
  let body _ = 0 in
  let c = Live.Children.spawn kids ~id:1 body in
  let cycle () =
    ignore (reap_within c 500);
    Live.Children.schedule_respawn c ~budget:2 ~base:0.0
  in
  for attempt = 1 to 2 do
    Alcotest.(check bool) "scheduled" true (cycle () <> None);
    Alcotest.(check bool) "due" true (Live.Children.respawn_due c);
    Live.Children.respawn kids c body;
    Alcotest.(check int) "attempts counted" attempt c.respawns;
    Alcotest.(check bool) "due cleared" false (Live.Children.respawn_due c)
  done;
  Alcotest.(check bool) "budget spent" true (cycle () = None);
  Alcotest.(check bool) "nothing scheduled" false (Live.Children.respawn_due c);
  Live.Children.teardown kids

let () =
  Alcotest.run "live"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte-by-byte" `Quick test_frame_byte_by_byte;
          Alcotest.test_case "truncated tail" `Quick test_frame_truncated_tail;
          Alcotest.test_case "corruption" `Quick test_frame_corruption;
          Alcotest.test_case "bad magic" `Quick test_frame_bad_magic;
          Alcotest.test_case "varint edges" `Quick test_frame_varint_edges;
          prop_frame_varint_roundtrip;
          prop_frame_fuzz_interleaved_truncation;
          prop_frame_fuzz_corruption;
          prop_frame_view_equivalence;
        ] );
      ( "script",
        [
          Alcotest.test_case "parse" `Quick test_script_parse;
          Alcotest.test_case "parse rejects" `Quick test_script_parse_rejects;
          Alcotest.test_case "print/parse roundtrip" `Quick test_script_roundtrip;
          Alcotest.test_case "validate" `Quick test_script_validate;
          Alcotest.test_case "writes completed" `Quick test_writes_completed;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "no crash" `Quick test_loopback_no_crash;
          Alcotest.test_case "acceptance n=5 f=2" `Quick test_loopback_acceptance;
          Alcotest.test_case "deterministic" `Quick test_loopback_deterministic;
          Alcotest.test_case "round-observations" `Quick
            test_loopback_round_observations;
          Alcotest.test_case "differential sweep" `Quick test_loopback_differential_sweep;
          Alcotest.test_case "default --f scripts" `Quick test_loopback_default_scripts;
          Alcotest.test_case "judge flags disagreement" `Quick test_judge_flags_disagreement;
          Alcotest.test_case "judge flags missing decision" `Quick
            test_judge_flags_missing_decision;
        ] );
      ( "node",
        [
          Alcotest.test_case "stash-and-late-frames" `Quick
            test_node_stash_and_late_frames;
        ] );
      ( "socket",
        [
          Alcotest.test_case "smoke n=4 mid-data kill" `Quick test_socket_smoke;
          Alcotest.test_case "structured connect error" `Quick
            test_sockets_connect_error;
          Alcotest.test_case "structured listen error" `Quick
            test_sockets_listen_error;
          Alcotest.test_case "retry-wait jitter envelope" `Quick
            test_retry_wait_jitter_envelope;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "respawn emits an event" `Quick
            test_supervisor_respawn_event;
          Alcotest.test_case "respawn budget exhausted" `Quick
            test_supervisor_respawn_budget_exhausted;
          Alcotest.test_case "absorbs an unscripted run kill" `Quick
            test_supervisor_absorbs_run_kill;
        ] );
      ( "children",
        [
          Alcotest.test_case "stopped child is Stop_killed" `Quick
            test_children_stop_killed;
          Alcotest.test_case "raising body exits 3" `Quick test_children_fatal;
          Alcotest.test_case "status lines split and skipped" `Quick
            test_children_lines;
          Alcotest.test_case "teardown reaps and closes" `Quick
            test_children_teardown;
          Alcotest.test_case "respawn delay and budget" `Quick
            test_children_respawn_budget;
        ] );
    ]

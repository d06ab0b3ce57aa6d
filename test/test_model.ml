(* Unit tests for the model library: pids, crash points, schedules. *)

open Model

let test_pid_validation () =
  Alcotest.check_raises "zero" (Invalid_argument "Pid.of_int: 0 < 1") (fun () ->
      ignore (Pid.of_int 0));
  Alcotest.(check int) "roundtrip" 3 (Pid.to_int (Pid.of_int 3))

let test_pid_all () =
  Alcotest.(check (list int)) "all 4" [ 1; 2; 3; 4 ]
    (List.map Pid.to_int (Pid.all ~n:4))

let test_pid_range () =
  Alcotest.(check (list int)) "range" [ 2; 3 ]
    (List.map Pid.to_int (Pid.range ~lo:2 ~hi:3));
  Alcotest.(check (list int)) "empty range" []
    (List.map Pid.to_int (Pid.range ~lo:4 ~hi:3))

let test_pid_range_desc () =
  (* The commit-sending order of Figure 1: p_n first, down to p_{i+1}. *)
  Alcotest.(check (list int)) "desc" [ 5; 4; 3 ]
    (List.map Pid.to_int (Pid.range_desc ~hi:5 ~lo:3));
  Alcotest.(check (list int)) "empty desc" []
    (List.map Pid.to_int (Pid.range_desc ~hi:2 ~lo:3))

let test_pid_pp () =
  Alcotest.(check string) "pp" "p7" (Pid.to_string (Pid.of_int 7))

let test_crash_validation () =
  Alcotest.check_raises "round 0" (Invalid_argument "Crash.make: round < 1")
    (fun () -> ignore (Crash.make ~round:0 Crash.Before_send));
  Alcotest.check_raises "neg prefix"
    (Invalid_argument "Crash.make: negative prefix") (fun () ->
      ignore (Crash.make ~round:1 (Crash.After_data (-1))))

let test_crash_model_compat () =
  let after_data = Crash.make ~round:1 (Crash.After_data 2) in
  Alcotest.(check bool) "extended ok" true
    (Result.is_ok (Crash.valid_for Model_kind.Extended after_data));
  Alcotest.(check bool) "classic rejected" true
    (Result.is_error (Crash.valid_for Model_kind.Classic after_data));
  let before = Crash.make ~round:1 Crash.Before_send in
  Alcotest.(check bool) "classic before ok" true
    (Result.is_ok (Crash.valid_for Model_kind.Classic before))

let test_crash_equal () =
  let s = Pid.set_of_ints [ 1; 2 ] in
  Alcotest.(check bool) "equal" true
    (Crash.equal
       (Crash.make ~round:2 (Crash.During_data s))
       (Crash.make ~round:2 (Crash.During_data (Pid.set_of_ints [ 2; 1 ]))));
  Alcotest.(check bool) "differ by point" false
    (Crash.equal
       (Crash.make ~round:2 Crash.Before_send)
       (Crash.make ~round:2 Crash.After_send))

let ev round point = Crash.make ~round point

let test_schedule_basics () =
  let s =
    Schedule.of_list
      [
        (Pid.of_int 1, ev 1 Crash.Before_send);
        (Pid.of_int 3, ev 2 Crash.After_send);
      ]
  in
  Alcotest.(check int) "f" 2 (Schedule.f s);
  Alcotest.(check bool) "finds p1" true (Schedule.find s (Pid.of_int 1) <> None);
  Alcotest.(check bool) "p2 correct" true (Schedule.find s (Pid.of_int 2) = None);
  Alcotest.(check int) "max round" 2 (Schedule.max_crash_round s);
  Alcotest.(check (list int)) "faulty" [ 1; 3 ]
    (List.map Pid.to_int (Pid.Set.elements (Schedule.faulty s)))

let test_schedule_rejects_duplicates () =
  Alcotest.check_raises "dup" (Invalid_argument "Schedule.add: p1 already crashes")
    (fun () ->
      ignore
        (Schedule.of_list
           [
             (Pid.of_int 1, ev 1 Crash.Before_send);
             (Pid.of_int 1, ev 2 Crash.After_send);
           ]))

let test_schedule_empty () =
  Alcotest.(check int) "f" 0 (Schedule.f Schedule.empty);
  Alcotest.(check int) "max round" 0 (Schedule.max_crash_round Schedule.empty);
  Alcotest.(check string) "pp" "no-crash" (Schedule.to_string Schedule.empty)

let test_schedule_validate () =
  let ok = Schedule.of_list [ (Pid.of_int 2, ev 1 (Crash.After_data 1)) ] in
  Alcotest.(check bool) "extended valid" true
    (Result.is_ok (Schedule.validate ~model:Model_kind.Extended ~n:3 ~t:1 ok));
  Alcotest.(check bool) "classic invalid point" true
    (Result.is_error (Schedule.validate ~model:Model_kind.Classic ~n:3 ~t:1 ok));
  Alcotest.(check bool) "f exceeds t" true
    (Result.is_error (Schedule.validate ~model:Model_kind.Extended ~n:3 ~t:0 ok));
  let out_of_range =
    Schedule.of_list [ (Pid.of_int 9, ev 1 Crash.Before_send) ]
  in
  Alcotest.(check bool) "pid out of range" true
    (Result.is_error
       (Schedule.validate ~model:Model_kind.Extended ~n:3 ~t:2 out_of_range))

let test_model_kind () =
  Alcotest.(check bool) "eq" true Model_kind.(equal Classic Classic);
  Alcotest.(check bool) "neq" false Model_kind.(equal Classic Extended);
  Alcotest.(check string) "pp" "extended" Model_kind.(to_string Extended)

let () =
  Alcotest.run "model"
    [
      ( "pid",
        [
          Alcotest.test_case "validation" `Quick test_pid_validation;
          Alcotest.test_case "all" `Quick test_pid_all;
          Alcotest.test_case "range" `Quick test_pid_range;
          Alcotest.test_case "range-desc" `Quick test_pid_range_desc;
          Alcotest.test_case "pp" `Quick test_pid_pp;
        ] );
      ( "crash",
        [
          Alcotest.test_case "validation" `Quick test_crash_validation;
          Alcotest.test_case "model-compat" `Quick test_crash_model_compat;
          Alcotest.test_case "equal" `Quick test_crash_equal;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "duplicates" `Quick test_schedule_rejects_duplicates;
          Alcotest.test_case "empty" `Quick test_schedule_empty;
          Alcotest.test_case "validate" `Quick test_schedule_validate;
          Alcotest.test_case "model-kind" `Quick test_model_kind;
        ] );
    ]

open Model

type kill_spec = { node : int; after_frames : int }

type instance_verdict = {
  instance : int;
  verdict : Live.Judge.verdict;
  transcript : Live.Transcript.t;
}

type latency = { p50 : float; p90 : float; p99 : float; max : float }

type t = {
  n : int;
  t : int;
  instances : int;
  completed : int;
  undecided : int;
  elapsed : float;
  decisions_per_sec : float;
  latency : latency option;
  stats : (int * Stats.t) list;
  total : Stats.t;
  kill : kill_spec option;
  victim : (int * Mux.realized list) option;
  judged : int;
  failures : instance_verdict list;
  wal_disagreements : int;
  ok : bool;
}

let percentile sorted q =
  let m = Array.length sorted in
  if m = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float_of_int m)) - 1 in
    sorted.(max 0 (min (m - 1) idx))

let latency_of = function
  | [] -> None
  | samples ->
    let a = Array.of_list samples in
    Array.sort compare a;
    Some
      {
        p50 = percentile a 0.50;
        p90 = percentile a 0.90;
        p99 = percentile a 0.99;
        max = a.(Array.length a - 1);
      }

(* One multiplexed instance, judged exactly like a single-instance live
   run: statuses from the decisions each node reported for it, the
   victim's realized crash point as a scripted kill, and — every death
   being scripted — the differential against the abstract engine under
   the schedule that kill realizes. *)
let judge_instance ~n ~t ~proposals ~row ~victim ~send_plan instance =
  let realized_of =
    match victim with
    | None -> fun _ -> None
    | Some (node, table) -> (
      fun i ->
        if row.(node - 1) <> None then None (* decided before the halt *)
        else
          match Hashtbl.find_opt table i with
          | Some (r : Mux.realized) ->
            Some
              Live.Script.{ pid = Pid.of_int node; round = r.round; phase = r.phase }
          | None ->
            (* The victim never activated this instance: it crashed, for
               this instance's purposes, before any round-1 write. *)
            Some
              Live.Script.
                { pid = Pid.of_int node; round = 1; phase = Before_send })
  in
  let kill = realized_of instance in
  let statuses =
    Array.init n (fun j ->
        match row.(j) with
        | Some (value, at_round) -> Live.Transcript.Decided { value; at_round }
        | None -> (
          match kill with
          | Some k when Pid.to_int k.Live.Script.pid = j + 1 ->
            Live.Transcript.Killed
              { at_round = k.Live.Script.round; scripted = true }
          | _ -> Live.Transcript.Undecided))
  in
  let max_round =
    Array.fold_left
      (fun acc -> function
        | Live.Transcript.Decided { at_round; _ }
        | Live.Transcript.Killed { at_round; _ } ->
          max acc at_round
        | Live.Transcript.Undecided -> acc)
      1 statuses
  in
  let tr =
    {
      Live.Transcript.n;
      t;
      proposals = Array.init n (fun j -> proposals instance (j + 1));
      statuses;
      rounds = Array.make n [];
      max_round;
    }
  in
  let schedule =
    Live.Script.to_schedule
      ~send_plan:(fun ~me ~round -> send_plan ~n ~me ~round)
      (match kill with None -> [] | Some k -> [ k ])
  in
  let verdict = Live.Judge.judge ~schedule tr in
  { instance; verdict; transcript = tr }

let build ~n ~t:tolerance ~proposals ~decisions ~victim ~send_plan ~elapsed
    ~latencies ~stats ~kill =
  let instances = Array.length decisions in
  let victim_tbl =
    match victim with
    | None -> None
    | Some (node, realized) ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (r : Mux.realized) -> Hashtbl.replace tbl r.instance r)
        realized;
      Some (node, tbl)
  in
  let victim_node = match victim with Some (node, _) -> node | None -> -1 in
  let completed = ref 0 in
  let undecided = ref 0 in
  let failures = ref [] in
  for i = 0 to instances - 1 do
    let row = decisions.(i) in
    let live_nodes_decided = ref true in
    for j = 0 to n - 1 do
      if j + 1 <> victim_node && row.(j) = None then live_nodes_decided := false
    done;
    if !live_nodes_decided then incr completed else incr undecided;
    let iv =
      judge_instance ~n ~t:tolerance ~proposals ~row ~victim:victim_tbl
        ~send_plan i
    in
    if not iv.verdict.Live.Judge.ok then failures := iv :: !failures
  done;
  let total = Stats.create () in
  List.iter (fun (_, s) -> Stats.add total s) stats;
  {
    n;
    t = tolerance;
    instances;
    completed = !completed;
    undecided = !undecided;
    elapsed;
    decisions_per_sec =
      (if elapsed > 0.0 then float_of_int !completed /. elapsed else 0.0);
    latency = latency_of latencies;
    stats;
    total;
    kill;
    victim;
    judged = instances;
    failures = List.rev !failures;
    wal_disagreements = 0;
    ok = !failures = [];
  }

let latency_to_json l =
  Obs.Json.Obj
    [
      ("p50", Obs.Json.Float l.p50);
      ("p90", Obs.Json.Float l.p90);
      ("p99", Obs.Json.Float l.p99);
      ("max", Obs.Json.Float l.max);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int r.n);
      ("t", Obs.Json.Int r.t);
      ("instances", Obs.Json.Int r.instances);
      ("completed", Obs.Json.Int r.completed);
      ("undecided", Obs.Json.Int r.undecided);
      ("elapsed_sec", Obs.Json.Float r.elapsed);
      ("decisions_per_sec", Obs.Json.Float r.decisions_per_sec);
      ( "latency",
        match r.latency with Some l -> latency_to_json l | None -> Obs.Json.Null
      );
      ( "kill",
        match r.kill with
        | Some k ->
          Obs.Json.Obj
            [
              ("node", Obs.Json.Int k.node);
              ("after_frames", Obs.Json.Int k.after_frames);
            ]
        | None -> Obs.Json.Null );
      ( "nodes",
        Obs.Json.List
          (List.map
             (fun (node, s) ->
               Obs.Json.Obj
                 [ ("node", Obs.Json.Int node); ("stats", Stats.to_json s) ])
             r.stats) );
      ("total", Stats.to_json r.total);
      ("judged", Obs.Json.Int r.judged);
      ( "failures",
        Obs.Json.List
          (List.map
             (fun iv ->
               Obs.Json.Obj
                 [
                   ("instance", Obs.Json.Int iv.instance);
                   ("judge", Live.Judge.to_json iv.transcript iv.verdict);
                 ])
             r.failures) );
      ("wal_disagreements", Obs.Json.Int r.wal_disagreements);
      ("ok", Obs.Json.Bool r.ok);
    ]

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "serve: n=%d t=%d instances=%d%a@," r.n r.t r.instances
    (fun ppf -> function
      | Some k ->
        Format.fprintf ppf " kill=p%d@@frame=%d" k.node k.after_frames
      | None -> ())
    r.kill;
  Format.fprintf ppf "  completed %d / %d (%d undecided) in %.3fs — %.0f \
                      decisions/sec@,"
    r.completed r.instances r.undecided r.elapsed r.decisions_per_sec;
  (match r.latency with
  | Some l ->
    Format.fprintf ppf
      "  decision latency p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms@,"
      (1000.0 *. l.p50) (1000.0 *. l.p90) (1000.0 *. l.p99) (1000.0 *. l.max)
  | None -> ());
  List.iter
    (fun (node, s) -> Format.fprintf ppf "  p%d: %a@," node Stats.pp s)
    r.stats;
  Format.fprintf ppf "  total: %d frames in %d writes (batch factor %.1f)@,"
    r.total.Stats.frames_out r.total.Stats.write_calls
    (if r.total.Stats.write_calls > 0 then
       float_of_int r.total.Stats.frames_out
       /. float_of_int r.total.Stats.write_calls
     else 0.0);
  Format.fprintf ppf "  judged %d instances: %d failures, %d WAL disagreements@,"
    r.judged (List.length r.failures) r.wal_disagreements;
  List.iter
    (fun iv ->
      Format.fprintf ppf "  instance %d FAILED:@,    @[<v>%a@]@," iv.instance
        Live.Judge.pp iv.verdict)
    r.failures;
  Format.fprintf ppf "verdict: %s@]" (if r.ok then "PASS" else "FAIL")

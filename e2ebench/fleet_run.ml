(* The measured serve run: a forked Unix-socket fleet under
   [Serve.Fleet.with_mesh], driven by the benchmark's own one-thread load
   generator.  One client session holds one socket per engine, because an
   instance settles only once every live node's Decide has arrived. *)

type loop = Closed of int  (** window *) | Open of float  (** submits/s *)

type spec = {
  n : int;
  wal : bool;
  kills : bool;  (** SIGKILL nodes 1..n once each; engines respawn *)
  loop : loop;
  warmup : float;
  seconds : float;
  seed : int;
}

let big_d = 0.25
let drain_grace = 3.0
let slo = 2.0 *. big_d

(* Set-ups per run; set-up time is their median.  The first ones are
   probes: the fleet comes up, a client says hello and leaves, and the
   engines exit. *)
let setups = 5
let judge_sample = 2000

(* The latency tail is read per half-second bucket of the window, and a
   bucket counts once it holds 400 samples (the slowest workload puts
   about 500 in each).  A kill, a one-off stall (the decided table
   doubling) or a slow spell of the host then raises some buckets' p99s
   instead of setting the tail of the whole run. *)
let bucket_width = 0.5
let min_bucket = 400

let redial_every = 0.02
let idle_every = 0.005

(* The open-loop generator sends what has come due at most once per tick,
   coalescing arrivals into one write per engine; latency still runs from
   each request's due time, so the tick's wait is counted. *)
let tick = 0.001

type result = {
  attempted : int;
  unsettled : int;
  disagreements : int;
  invalid : int;
  judged : int;
  judge_failures : int;
  settled_in_window : int;
  window : float;
  latencies : float array;  (** sorted, seconds *)
  bucket_p99s : float list;  (** p99 of each full bucket of the window *)
  slo_due : int;
  slo_misses : int;
  lags : float array;  (** sorted generator lateness, open loop only *)
  cpu : float;  (** generator + engine CPU seconds over the window *)
  rss_kib : int;  (** highest engine VmHWM at the end of the window *)
  setup : float list;
  kills : int;
  recoveries : float list;  (** kill -> first Decide of the new life *)
  redials : float list;  (** kill -> re-dial accepted *)
  node_stats : (int * Serve.Stats.t) list;
}

let failed r = r.unsettled + r.disagreements + r.invalid + r.judge_failures

type flight = {
  id : int;
  t0 : float;  (* submit time (closed loop) or due time (open loop) *)
  row : (int * int) option array;  (* per node: (value, round) *)
  mutable expect : int;  (* bitmask of nodes whose Decide is awaited *)
  mutable value : int;
  mutable bad : bool;
}

let fleet_config spec ~workspace =
  {
    Serve.Fleet.n = spec.n;
    t = max 1 (spec.n - 2);
    transport = `Unix workspace;
    workspace;
    instances = 0;
    window = (match spec.loop with Closed w -> w | Open _ -> 0);
    big_d;
    batch = true;
    backend = Serve.Evloop.Poll;
    kill = None;
    max_rounds = None;
    proposals = Inputs.proposals ~seed:spec.seed;
    client_timeout = None;
    respawn = spec.kills;
    respawn_budget = 3;
    respawn_backoff = 0.2;
    wal = spec.wal;
    chaos = [];
    verbose = false;
  }

let now = Live.Sockets.now
let hello = Live.Frame.encode (Live.Frame.Hello { node = 0 })

let dial ~workspace ~deadline p =
  match
    Live.Sockets.connect_retry ~deadline
      (Live.Sockets.addr_of ~transport:(`Unix workspace) p)
  with
  | Error _ as e -> e
  | Ok fd -> (
    match Live.Sockets.write_all ~deadline fd hello with
    | Ok () ->
      Unix.set_nonblock fd;
      Ok fd
    | Error _ as e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      e)

let close_all fds =
  Array.iteri
    (fun i fdo ->
      Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fdo;
      fds.(i) <- None)
    fds

(* A probe set-up: time the fleet to the moment [with_mesh] calls [drive],
   then let the engines exit. *)
let probe spec ~workspace =
  let cfg = fleet_config { spec with kills = false } ~workspace in
  let t0 = now () in
  let ready = ref nan in
  let drive ~on_idle:_ ~kill:_ =
    ready := now ();
    let fds =
      Array.init spec.n (fun i ->
          match dial ~workspace ~deadline:(now () +. 10.0) (i + 1) with
          | Ok fd -> Some fd
          | Error _ -> None)
    in
    close_all fds;
    Ok ()
  in
  match Serve.Fleet.with_mesh cfg drive with
  | Ok _ -> Ok (!ready -. t0)
  | Error e -> Error e

let measured spec ~workspace =
  let cfg = fleet_config spec ~workspace in
  let n = spec.n in
  let t_call = now () in
  let setup = ref nan in
  let attempted = ref 0 in
  let unsettled = ref 0 in
  let disagreements = ref 0 in
  let invalid = ref 0 in
  let settled_in_window = ref 0 in
  let latencies = Samples.create () in
  let buckets =
    Array.init
      (max 1 (int_of_float (Float.ceil (spec.seconds /. bucket_width))))
      (fun _ -> Samples.create ())
  in
  (* [since]: the sample's offset into the window *)
  let record ~since lat =
    Samples.push latencies lat;
    let b = int_of_float (since /. bucket_width) in
    Samples.push buckets.(max 0 (min (Array.length buckets - 1) b)) lat
  in
  let lags = Samples.create () in
  let slo_due = ref 0 in
  let slo_misses = ref 0 in
  let cpu = ref 0.0 in
  let rss = ref 0 in
  let window = ref spec.seconds in
  let kills = ref 0 in
  let recoveries = ref [] in
  let redials = ref [] in
  let sample_rng = Prng.Rng.of_int (Inputs.mix (spec.seed + 0x5a3)) in
  let sample = Array.make judge_sample (-1, [||]) in
  let sampled = ref 0 in
  let drive ~on_idle ~kill =
    setup := now () -. t_call;
    let fds = Array.make n None in
    let decoders = Array.init n (fun _ -> Live.Frame.decoder ()) in
    let err = ref None in
    for p = 1 to n do
      if !err = None then
        match dial ~workspace ~deadline:(now () +. 10.0) p with
        | Ok fd -> fds.(p - 1) <- Some fd
        | Error e ->
          err :=
            Some
              (Printf.sprintf "dial p%d: %s" p (Live.Sockets.error_to_string e))
    done;
    match !err with
    | Some e ->
      close_all fds;
      Error e
    | None ->
      let started = now () in
      let w0 = started +. spec.warmup in
      let w1 = w0 +. spec.seconds in
      let hard_end = w1 +. drain_grace in
      let inflight : (int, flight) Hashtbl.t = Hashtbl.create 1024 in
      let live_mask () =
        let m = ref 0 in
        Array.iteri (fun i fdo -> if fdo <> None then m := !m lor (1 lsl i)) fds;
        !m
      in
      let in_slo_window f =
        match spec.loop with
        | Open _ -> f.t0 >= w0 && f.t0 < w1
        | Closed _ -> false
      in
      let fail f =
        Hashtbl.remove inflight f.id;
        incr unsettled;
        if in_slo_window f then begin
          incr slo_due;
          incr slo_misses
        end
      in
      let settle f =
        if f.value < 0 then fail f
        else begin
          Hashtbl.remove inflight f.id;
          let at = now () in
          if f.bad then incr disagreements;
          if not (Inputs.proposed ~seed:spec.seed ~n f.id f.value) then
            incr invalid;
          let in_window = at >= w0 && at < w1 in
          if in_window then incr settled_in_window;
          (* Closed loop: submit -> settle of what settles in the window.
             Open loop: due -> settle of what came due in it, so a stall
             also delays the requests queued behind it. *)
          let lat = at -. f.t0 in
          (match spec.loop with
          | Closed _ -> if in_window then record ~since:(at -. w0) lat
          | Open _ ->
            if in_slo_window f then begin
              record ~since:(f.t0 -. w0) lat;
              incr slo_due;
              if lat > slo then incr slo_misses
            end);
          if not spec.kills then begin
            let k = !sampled in
            incr sampled;
            if k < judge_sample then sample.(k) <- (f.id, f.row)
            else
              let j = Prng.Rng.int sample_rng (k + 1) in
              if j < judge_sample then sample.(j) <- (f.id, f.row)
          end
        end
      in
      let next_id = ref 0 in
      let submit_batch ids =
        let bufs = Array.init n (fun _ -> Buffer.create 256) in
        let mask = live_mask () in
        List.iter
          (fun (id, t0) ->
            incr attempted;
            Hashtbl.replace inflight id
              {
                id;
                t0;
                row = Array.make n None;
                expect = mask;
                value = -1;
                bad = false;
              };
            for p = 1 to n do
              if mask land (1 lsl (p - 1)) <> 0 then
                Buffer.add_string bufs.(p - 1)
                  (Live.Frame.encode
                     (Live.Frame.Submit
                        {
                          instance = id;
                          proposal = Inputs.proposals ~seed:spec.seed id p;
                        }))
            done)
          ids;
        Array.iteri
          (fun i fdo ->
            match fdo with
            | Some fd when Buffer.length bufs.(i) > 0 ->
              ignore
                (Live.Sockets.write_all ~deadline:(now () +. 2.0) fd
                   (Buffer.contents bufs.(i)))
            | _ -> ())
          fds
      in
      (* Open loop: the next arrival's due time; infinity when closed. *)
      let arrival =
        match spec.loop with
        | Open rate ->
          let gen = Inputs.arrivals ~seed:spec.seed ~rate in
          fun () -> started +. gen ()
        | Closed _ -> fun () -> infinity
      in
      let next_due = ref (arrival ()) in
      let submit_due t =
        if t < w1 then begin
          let fresh = ref [] in
          (match spec.loop with
          | Closed w ->
            while Hashtbl.length inflight + List.length !fresh < w do
              fresh := (!next_id, t) :: !fresh;
              incr next_id
            done
          | Open _ ->
            while !next_due <= t do
              if !next_due >= w0 then Samples.push lags (t -. !next_due);
              fresh := (!next_id, !next_due) :: !fresh;
              incr next_id;
              next_due := arrival ()
            done);
          if !fresh <> [] then submit_batch (List.rev !fresh)
        end
      in
      (* Kill schedule: node k at w0 + k * seconds / (n + 1). *)
      let kill_at =
        Array.init n (fun k ->
            if spec.kills then
              w0 +. (float_of_int (k + 1) *. spec.seconds /. float_of_int (n + 1))
            else infinity)
      in
      let killed_at = Array.make n nan in
      let next_try = Array.make n infinity in
      let awaiting = Array.make n false in
      let mark_dead p =
        match fds.(p - 1) with
        | None -> ()
        | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fds.(p - 1) <- None;
          if spec.kills then next_try.(p - 1) <- now () +. redial_every
          else if !err = None then
            err := Some (Printf.sprintf "engine p%d closed its client socket" p);
          let bit = 1 lsl (p - 1) in
          let freed = ref [] in
          Hashtbl.iter
            (fun _ f ->
              if f.expect land bit <> 0 then begin
                f.expect <- f.expect lxor bit;
                if f.expect = 0 then freed := f :: !freed
              end)
            inflight;
          List.iter settle !freed
      in
      let on_decide p (v : Live.Frame.view) =
        if awaiting.(p - 1) then begin
          awaiting.(p - 1) <- false;
          recoveries := (now () -. killed_at.(p - 1)) :: !recoveries
        end;
        match Hashtbl.find_opt inflight v.Live.Frame.instance with
        | None -> ()
        | Some f ->
          if f.row.(p - 1) = None then begin
            f.row.(p - 1) <- Some (v.Live.Frame.value, v.Live.Frame.round);
            if f.value < 0 then f.value <- v.Live.Frame.value
            else if f.value <> v.Live.Frame.value then f.bad <- true;
            let bit = 1 lsl (p - 1) in
            if f.expect land bit <> 0 then begin
              f.expect <- f.expect lxor bit;
              if f.expect = 0 then settle f
            end
          end
      in
      let drain p =
        let dec = decoders.(p - 1) in
        let rec go () =
          match Live.Frame.pop_view dec with
          | `View v ->
            if v.Live.Frame.kind = Live.Frame.K_decide then on_decide p v;
            go ()
          | `Need_more -> ()
          | `Corrupt _ -> mark_dead p
        in
        go ()
      in
      let redial t =
        for p = 1 to n do
          if fds.(p - 1) = None && t >= next_try.(p - 1) then
            match dial ~workspace ~deadline:t p with
            | Ok fd ->
              fds.(p - 1) <- Some fd;
              decoders.(p - 1) <- Live.Frame.decoder ();
              next_try.(p - 1) <- infinity;
              redials := (now () -. killed_at.(p - 1)) :: !redials;
              awaiting.(p - 1) <- true
            | Error _ -> next_try.(p - 1) <- t +. redial_every
        done
      in
      let buf = Bytes.create 65536 in
      let last_idle = ref 0.0 in
      let cpu0 = ref nan in
      let window_open = ref false and window_closed = ref false in
      let close_window t =
        if !window_open && not !window_closed then begin
          window_closed := true;
          cpu := Proc.tree_cpu () -. !cpu0;
          window := t -. w0;
          rss :=
            List.fold_left
              (fun acc pid -> max acc (Proc.peak_rss_kib pid))
              0 (Proc.children ())
        end
      in
      submit_due started;
      while
        !err = None
        && (now () < w1 || (Hashtbl.length inflight > 0 && now () < hard_end))
      do
        let t = now () in
        if (not !window_open) && t >= w0 then begin
          window_open := true;
          cpu0 := Proc.tree_cpu ()
        end;
        if t >= w1 then close_window t;
        Array.iteri
          (fun k at ->
            if t >= at then begin
              kill_at.(k) <- infinity;
              if kill (k + 1) then begin
                incr kills;
                killed_at.(k) <- now ()
              end
            end)
          kill_at;
        submit_due t;
        let live = Array.to_list fds |> List.filter_map Fun.id in
        let timeout =
          let cap = if t < w1 then Float.max tick (!next_due -. t) else 0.05 in
          Float.max 0.0 (Float.min 0.05 (Float.min cap (hard_end -. t)))
        in
        (match Unix.select live [] [] timeout with
        | ready, _, _ ->
          for p = 1 to n do
            match fds.(p - 1) with
            | Some fd when List.memq fd ready -> (
              match Live.Sockets.read_chunk fd buf with
              | `Data k ->
                Live.Frame.feed decoders.(p - 1) (Bytes.unsafe_to_string buf)
                  ~pos:0 ~len:k;
                drain p
              | `Closed -> mark_dead p
              | `Nothing -> ())
            | _ -> ()
          done
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        let t = now () in
        if spec.kills then redial t;
        if t -. !last_idle >= idle_every then begin
          last_idle := t;
          on_idle ()
        end
      done;
      close_window (now ());
      (* Whatever is still in flight never settled: a failure. *)
      Hashtbl.fold (fun _ f acc -> f :: acc) inflight [] |> List.iter fail;
      close_all fds;
      match !err with Some e -> Error e | None -> Ok ()
  in
  match Serve.Fleet.with_mesh cfg drive with
  | Error e -> Error e
  | Ok ((), mesh) ->
    let k = min !sampled judge_sample in
    let ids = Array.init k (fun i -> fst sample.(i)) in
    let report =
      Serve.Report.build ~n ~t:(max 1 (n - 2))
        ~proposals:(fun i node -> Inputs.proposals ~seed:spec.seed ids.(i) node)
        ~decisions:(Array.init k (fun i -> snd sample.(i)))
        ~victim:None ~send_plan:Serve.Binding.Rwwc.send_plan ~elapsed:0.0
        ~latencies:[] ~stats:[] ~kill:None
    in
    Ok
      {
        attempted = !attempted;
        unsettled = !unsettled;
        disagreements = !disagreements;
        invalid = !invalid;
        judged = report.Serve.Report.judged;
        judge_failures = List.length report.Serve.Report.failures;
        settled_in_window = !settled_in_window;
        window = !window;
        latencies = Samples.sorted latencies;
        bucket_p99s =
          Array.to_list buckets
          |> List.filter (fun b -> Samples.length b >= min_bucket)
          |> List.map (fun b -> Samples.percentile (Samples.sorted b) 0.99);
        slo_due = !slo_due;
        slo_misses = !slo_misses;
        lags = Samples.sorted lags;
        cpu = !cpu;
        rss_kib = !rss;
        setup = [ !setup ];
        kills = !kills;
        recoveries = !recoveries;
        redials = !redials;
        node_stats = mesh.Serve.Fleet.node_stats;
      }

(* [setups - 1] probe fleets, then the measured one, each in a fresh
   workspace under [dir] (relative, so socket paths stay short).  [keep]
   sees the measured workspace before it is removed. *)
let run ?(keep = fun _ -> ()) spec ~dir =
  Proc.remove_tree dir;
  let rec probes k acc =
    if k >= setups - 1 then Ok (List.rev acc)
    else
      let workspace = Filename.concat dir (Printf.sprintf "probe-%d" k) in
      Proc.mkdir_p workspace;
      let r = probe spec ~workspace in
      Proc.remove_tree workspace;
      match r with Ok s -> probes (k + 1) (s :: acc) | Error e -> Error e
  in
  Stdlib.flush_all ();
  let result =
    match probes 0 [] with
    | Error e -> Error e
    | Ok probe_setups -> (
      let workspace = Filename.concat dir "run" in
      Proc.mkdir_p workspace;
      match measured spec ~workspace with
      | Error e -> Error e
      | Ok r ->
        keep workspace;
        Ok { r with setup = probe_setups @ r.setup })
  in
  Proc.remove_tree dir;
  result

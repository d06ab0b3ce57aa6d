type bucket = {
  since : float;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  duration : float;
  bucket_width : float;
  elapsed : float;
  settled : int;
  disagreements : int;
  undrained : int;
  decisions_per_sec : float;
  kills : int;
  reconnects : int;
  buckets : bucket list;
  ok : bool;
}

(* After the stream stops submitting, in-flight instances get this long
   to settle before the soak closes and counts them undrained. *)
let drain_grace = 3.0

let run ?kill_every cfg ~duration ~bucket =
  if duration <= 0.0 then Error "serve soak: duration must be positive"
  else if bucket <= 0.0 then Error "serve soak: bucket must be positive"
  else if kill_every <> None && not cfg.Fleet.respawn then
    Error "serve soak: --kill-every needs the respawn policy enabled"
  else
    let drive ~on_idle ~kill =
      let started = Live.Sockets.now () in
      (* The periodic chaos kill: SIGKILL the next engine round-robin and
         let the fleet's respawn policy bring it back through the
         WAL-replay / catch-up path, while the client re-dials it. *)
      let kills = ref 0 in
      let next_victim = ref 1 in
      let next_kill =
        ref (match kill_every with Some ke -> started +. ke | None -> infinity)
      in
      let on_idle () =
        (match kill_every with
        | Some ke when Live.Sockets.now () >= !next_kill ->
          if kill !next_victim then incr kills;
          next_victim := (!next_victim mod cfg.Fleet.n) + 1;
          next_kill := Live.Sockets.now () +. ke
        | Some _ | None -> ());
        on_idle ()
      in
      (* Agreement is checked on each settled row; the settle-time
         latency lands in the bucket its settle time falls in. *)
      let settled = ref 0 in
      let disagreements = ref 0 in
      let lat_buckets : (int, float list ref) Hashtbl.t = Hashtbl.create 32 in
      let on_settle (s : Client.settled) =
        incr settled;
        let values =
          Array.to_list s.Client.row
          |> List.filter_map (Option.map fst)
          |> List.sort_uniq compare
        in
        if List.length values > 1 then incr disagreements;
        let idx = int_of_float ((s.Client.at -. started) /. bucket) in
        let cell =
          match Hashtbl.find_opt lat_buckets idx with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace lat_buckets idx r;
            r
        in
        cell := (s.Client.at -. s.Client.submitted) :: !cell
      in
      match
        Client.run ~on_idle ~on_settle
          {
            Client.n = cfg.Fleet.n;
            transport = cfg.Fleet.transport;
            first = 0;
            load = Client.Until (started +. duration);
            window = cfg.Fleet.window;
            proposals = cfg.Fleet.proposals;
            timeout = duration +. drain_grace;
            reconnect = cfg.Fleet.respawn;
          }
      with
      | Error e -> Error ("serve soak: " ^ e)
      | Ok outcome ->
        let elapsed = Live.Sockets.now () -. started in
        let buckets =
          Hashtbl.fold (fun idx lats acc -> (idx, !lats) :: acc) lat_buckets []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> List.map (fun (idx, lats) ->
                 let arr = Array.of_list lats in
                 Array.sort compare arr;
                 {
                   since = float_of_int idx *. bucket;
                   count = Array.length arr;
                   p50 = Report.percentile arr 0.50;
                   p90 = Report.percentile arr 0.90;
                   p99 = Report.percentile arr 0.99;
                 })
        in
        let undrained = List.length outcome.Client.undecided in
        Ok
          {
            duration;
            bucket_width = bucket;
            elapsed;
            settled = !settled;
            disagreements = !disagreements;
            undrained;
            decisions_per_sec =
              (if elapsed > 0.0 then float_of_int !settled /. elapsed else 0.0);
            kills = !kills;
            reconnects = outcome.Client.reconnects;
            buckets;
            ok = !disagreements = 0 && undrained = 0;
          }
    in
    match Fleet.with_mesh cfg drive with
    | Error e -> Error e
    | Ok (t, _mesh) -> Ok t

let to_json t =
  Obs.Json.Obj
    [
      ("duration", Obs.Json.Float t.duration);
      ("bucket_width", Obs.Json.Float t.bucket_width);
      ("elapsed", Obs.Json.Float t.elapsed);
      ("settled", Obs.Json.Int t.settled);
      ("disagreements", Obs.Json.Int t.disagreements);
      ("undrained", Obs.Json.Int t.undrained);
      ("decisions_per_sec", Obs.Json.Float t.decisions_per_sec);
      ("kills", Obs.Json.Int t.kills);
      ("reconnects", Obs.Json.Int t.reconnects);
      ("ok", Obs.Json.Bool t.ok);
      ( "buckets",
        Obs.Json.List
          (List.map
             (fun b ->
               Obs.Json.Obj
                 [
                   ("since", Obs.Json.Float b.since);
                   ("count", Obs.Json.Int b.count);
                   ("p50", Obs.Json.Float b.p50);
                   ("p90", Obs.Json.Float b.p90);
                   ("p99", Obs.Json.Float b.p99);
                 ])
             t.buckets) );
    ]

let pp ppf t =
  Format.fprintf ppf "soak: %.0fs, %d settled (%.1f/s), %d disagreement(s)%s%s@."
    t.duration t.settled t.decisions_per_sec t.disagreements
    (if t.undrained > 0 then Printf.sprintf ", %d undrained" t.undrained else "")
    (if t.kills > 0 then
       Printf.sprintf ", %d kill(s) / %d reconnect(s)" t.kills t.reconnects
     else "");
  Format.fprintf ppf "  %8s %8s %10s %10s %10s@." "t" "count" "p50" "p90" "p99";
  List.iter
    (fun b ->
      Format.fprintf ppf "  %7.0fs %8d %9.2fms %9.2fms %9.2fms@." b.since
        b.count (1000.0 *. b.p50) (1000.0 *. b.p90) (1000.0 *. b.p99))
    t.buckets

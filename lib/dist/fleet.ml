let failed_exit_code = 3
let auto_shards ?(straggler = 8) ~workers () = max 1 workers * straggler

let spawn_worker ?patience ?chaos ?verbose ~addr () =
  Live.Children.fork (fun () ->
      match Worker.run ?patience ?chaos ?verbose ~addr () with
      | Ok _ -> 0
      | Error why ->
        Printf.eprintf "worker %d: %s\n%!" (Unix.getpid ()) why;
        failed_exit_code)

type outcome = {
  report : Coordinator.report;
  worker_failures : int;
  chaos_deaths : int;
}

let reap pids =
  List.fold_left
    (fun (failures, chaos) pid ->
      match Live.Children.wait pid with
      | `Exited 0 -> (failures, chaos)
      | `Exited c when c = Worker.chaos_exit_code -> (failures, chaos + 1)
      | `Exited _ | `Signaled _ | `Stop_killed -> (failures + 1, chaos))
    (0, 0) pids

let run_local ?lease_timeout ?checkpoint ?verbose ?kill_one_after ~workers
    ~addr job =
  if workers < 1 then Error "run_local: need at least one worker"
  else begin
    let chaos_for i =
      match kill_one_after with
      | Some k when i = 0 ->
        Some { Worker.no_chaos with die_after_schedules = Some k }
      | Some _ | None -> None
    in
    (* A lone chaotic worker leaves nobody to finish the sweep: give the
       fleet one clean replacement so completion stays reachable. *)
    let replacements =
      if kill_one_after <> None && workers = 1 then 1 else 0
    in
    let pids =
      List.init (workers + replacements) (fun i ->
          spawn_worker ?chaos:(chaos_for i) ?verbose ~addr ())
    in
    (* The chaotic worker leads: it alone holds leases until it dies, so
       the healthy workers cannot finish the sweep before its K-th
       schedule. *)
    let lead =
      Option.map (fun _ -> Worker.name_of_pid (List.hd pids)) kill_one_after
    in
    let served =
      Coordinator.serve
        (Coordinator.config ?lease_timeout ?checkpoint ~min_workers:workers
           ?lead ?verbose ~addr job)
    in
    (* Reap unconditionally: serve errors must not leak children. *)
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      (match served with Ok _ -> [] | Error _ -> pids);
    let worker_failures, chaos_deaths = reap pids in
    match served with
    | Error why -> Error why
    | Ok report -> Ok { report; worker_failures; chaos_deaths }
  end

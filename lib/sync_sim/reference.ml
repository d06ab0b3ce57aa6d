open Model

module Make (A : Algorithm_intf.S) = struct
  type proc = { state : A.state; status : Run_result.status; active : bool }

  type config = {
    procs : proc array;
    t : int;
    value_bits : int;
    next_round : int;
    crashes : int;
    data_msgs : int;
    data_bits : int;
    sync_msgs : int;
    post_decision_crashes : Pid.Set.t;
  }

  type crash = Pid.t * Crash.point

  let initial (cfg : Engine.config) =
    {
      procs =
        Array.init cfg.n (fun i ->
            {
              state =
                A.init ~n:cfg.n ~t:cfg.t ~me:(Pid.of_int (i + 1))
                  ~proposal:cfg.proposals.(i);
              status = Run_result.Undecided;
              active = true;
            });
      t = cfg.t;
      value_bits = cfg.value_bits;
      next_round = 1;
      crashes = 0;
      data_msgs = 0;
      data_bits = 0;
      sync_msgs = 0;
      post_decision_crashes = Pid.Set.empty;
    }

  let is_running p = p.status = Run_result.Undecided

  let running c =
    List.filter
      (fun pid -> is_running c.procs.(Pid.to_int pid - 1))
      (Pid.all ~n:(Array.length c.procs))

  let statuses c = Array.map (fun p -> p.status) c.procs

  let decided_values c =
    Array.to_list c.procs
    |> List.filter_map (fun p ->
           match p.status with
           | Run_result.Decided { value; _ } -> Some value
           | Run_result.Crashed _ | Run_result.Undecided -> None)
    |> List.sort_uniq Int.compare

  (* What a process planning [data] and [syncs] delivers when it crashes at
     [point] ([None]: it survives the round). *)
  let delivered point data syncs =
    match point with
    | None | Some Crash.After_send -> (data, syncs)
    | Some Crash.Before_send -> ([], [])
    | Some (Crash.During_data s) ->
      (List.filter (fun (dest, _) -> Pid.Set.mem dest s) data, [])
    | Some (Crash.After_data k) -> (data, List.filteri (fun i _ -> i < k) syncs)

  let step c ~crashes =
    let n = Array.length c.procs and r = c.next_round in
    if c.crashes + List.length crashes > c.t then
      invalid_arg "Reference.step: crash budget spent";
    let point_of = Array.make n None in
    List.iter
      (fun (pid, point) ->
        let i = Pid.to_int pid - 1 in
        if not c.procs.(i).active || point_of.(i) <> None then
          invalid_arg "Reference.step: victim not active";
        point_of.(i) <- Some point)
      crashes;
    let inbox_data = Array.make n [] and inbox_syncs = Array.make n [] in
    let data_msgs = ref c.data_msgs and data_bits = ref c.data_bits in
    let sync_msgs = ref c.sync_msgs in
    Array.iteri
      (fun i p ->
        if p.active then begin
          let from = Pid.of_int (i + 1) in
          let syncs = A.sync_sends p.state ~round:r in
          if A.model = Model_kind.Classic && syncs <> [] then
            raise
              (Engine.Model_violation
                 (A.name ^ " emits control messages under the classic model"));
          let data, syncs =
            delivered point_of.(i) (A.data_sends p.state ~round:r) syncs
          in
          List.iter
            (fun (dest, msg) ->
              let j = Pid.to_int dest - 1 in
              incr data_msgs;
              data_bits := !data_bits + A.msg_bits ~value_bits:c.value_bits msg;
              inbox_data.(j) <- (from, msg) :: inbox_data.(j))
            data;
          List.iter
            (fun dest ->
              let j = Pid.to_int dest - 1 in
              incr sync_msgs;
              inbox_syncs.(j) <- from :: inbox_syncs.(j))
            syncs
        end)
      c.procs;
    let post_decision_crashes = ref c.post_decision_crashes in
    let procs =
      Array.mapi
        (fun i p ->
          if not p.active then p
          else if point_of.(i) <> None then
            match p.status with
            | Run_result.Decided _ ->
              (* Announced earlier: the decision stands, the crash only ends
                 the process's participation. *)
              post_decision_crashes :=
                Pid.Set.add (Pid.of_int (i + 1)) !post_decision_crashes;
              { p with active = false }
            | Run_result.Undecided | Run_result.Crashed _ ->
              let status = Run_result.Crashed { at_round = r } in
              { p with status; active = false }
          else
            let data =
              List.sort (fun (a, _) (b, _) -> Pid.compare a b) inbox_data.(i)
            and syncs = List.sort Pid.compare inbox_syncs.(i) in
            let state, decision = A.compute p.state ~round:r ~data ~syncs in
            match decision with
            | Some value when is_running p ->
              {
                state;
                status = Run_result.Decided { value; at_round = r };
                active = A.decision_mode = `Announce;
              }
            | Some _ | None -> { p with state })
        c.procs
    in
    {
      c with
      procs;
      next_round = r + 1;
      crashes = c.crashes + List.length crashes;
      data_msgs = !data_msgs;
      data_bits = !data_bits;
      sync_msgs = !sync_msgs;
      post_decision_crashes = !post_decision_crashes;
    }

  let runner (cfg : Engine.config) schedule =
    (match Schedule.validate ~model:A.model ~n:cfg.n ~t:cfg.t schedule with
    | Ok () -> ()
    | Error msg -> raise (Engine.Model_violation msg));
    (* The schedule's crashes of the coming round that hit an active
       process: a crash planned after a [`Halt] decision does nothing. *)
    let crashes_in c =
      List.filter_map
        (fun (pid, (ev : Crash.event)) ->
          if ev.round = c.next_round && c.procs.(Pid.to_int pid - 1).active
          then Some (pid, ev.point)
          else None)
        (Schedule.bindings schedule)
    in
    let rec go c =
      if c.next_round > cfg.max_rounds || not (Array.exists is_running c.procs)
      then c
      else go (step c ~crashes:(crashes_in c))
    in
    let c = go (initial cfg) in
    {
      Run_result.n = cfg.n;
      t = cfg.t;
      proposals = Array.copy cfg.proposals;
      statuses = statuses c;
      rounds_executed = c.next_round - 1;
      data_msgs = c.data_msgs;
      data_bits = c.data_bits;
      sync_msgs = c.sync_msgs;
      sync_bits = c.sync_msgs;
      post_decision_crashes = c.post_decision_crashes;
      trace = [];
    }

  let run (cfg : Engine.config) = runner cfg cfg.schedule
end

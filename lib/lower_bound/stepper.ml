open Model

module Make (A : Algo_intf.S) = struct
  type proc = {
    state : A.state;
    status : Sync_sim.Run_result.status;  (* Undecided = still running *)
  }

  type config = { procs : proc array; t : int; next_round : int; crashes : int }

  type crash = Pid.t * Crash.point

  let initial ~n ~t ~proposals =
    if t < 0 || t >= n then invalid_arg "Stepper.initial: need 0 <= t < n";
    if Array.length proposals <> n then invalid_arg "Stepper.initial: arity";
    {
      procs =
        Array.init n (fun i ->
            {
              state =
                A.init ~n ~t ~me:(Pid.of_int (i + 1)) ~proposal:proposals.(i);
              status = Sync_sim.Run_result.Undecided;
            });
      t;
      next_round = 1;
      crashes = 0;
    }

  let next_round c = c.next_round

  let resilience c = c.t

  let is_running p = p.status = Sync_sim.Run_result.Undecided

  let running c =
    Array.to_list c.procs
    |> List.mapi (fun i p -> (i, p))
    |> List.filter_map (fun (i, p) ->
           if is_running p then Some (Pid.of_int (i + 1)) else None)

  let statuses c = Array.map (fun p -> p.status) c.procs

  let decided_values c =
    Array.to_list c.procs
    |> List.filter_map (fun p ->
           match p.status with
           | Sync_sim.Run_result.Decided { value; _ } -> Some value
           | Sync_sim.Run_result.Crashed _ | Sync_sim.Run_result.Undecided ->
             None)
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
      invalid_arg "Stepper.step: crash budget spent";
    let point_of = Array.make n None in
    List.iter
      (fun (pid, point) ->
        let i = Pid.to_int pid - 1 in
        if not (is_running c.procs.(i)) || point_of.(i) <> None then
          invalid_arg "Stepper.step: victim not running";
        point_of.(i) <- Some point)
      crashes;
    let inbox_data = Array.make n [] and inbox_syncs = Array.make n [] in
    Array.iteri
      (fun i p ->
        if is_running p then begin
          let from = Pid.of_int (i + 1) in
          let data, syncs =
            delivered point_of.(i)
              (A.data_sends p.state ~round:r)
              (A.sync_sends p.state ~round:r)
          in
          List.iter
            (fun (dest, msg) ->
              let j = Pid.to_int dest - 1 in
              inbox_data.(j) <- (from, msg) :: inbox_data.(j))
            data;
          List.iter
            (fun dest ->
              let j = Pid.to_int dest - 1 in
              inbox_syncs.(j) <- from :: inbox_syncs.(j))
            syncs
        end)
      c.procs;
    let procs =
      Array.mapi
        (fun i p ->
          if not (is_running p) then p
          else if point_of.(i) <> None then
            { p with status = Sync_sim.Run_result.Crashed { at_round = r } }
          else
            let data =
              List.sort (fun (a, _) (b, _) -> Pid.compare a b) inbox_data.(i)
            and syncs = List.sort Pid.compare inbox_syncs.(i) in
            let state, decision = A.compute p.state ~round:r ~data ~syncs in
            let status =
              match decision with
              | None -> Sync_sim.Run_result.Undecided
              | Some value -> Sync_sim.Run_result.Decided { value; at_round = r }
            in
            { state; status })
        c.procs
    in
    { c with procs; next_round = r + 1; crashes = c.crashes + List.length crashes }

  let fingerprint c =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int c.next_round);
    Buffer.add_char buf '|';
    Array.iter
      (fun p ->
        (match p.status with
        | Sync_sim.Run_result.Undecided ->
          Buffer.add_string buf ("R:" ^ A.fingerprint p.state)
        | Sync_sim.Run_result.Decided { value; _ } ->
          Buffer.add_string buf ("D:" ^ string_of_int value)
        | Sync_sim.Run_result.Crashed _ -> Buffer.add_string buf "X");
        Buffer.add_char buf ';')
      c.procs;
    Buffer.add_string buf (string_of_int c.crashes);
    Buffer.contents buf

  (* --- configuration search ---------------------------------------------- *)

  type node = {
    id : int;
    config : config;
    parent : (node * crash list) option;
    mutable succs : node list;
  }

  (* Every crash list of the round: up to [per_round] running victims
     (within the remaining budget), each at one point per distinct delivery
     of the sends it plans; the failure-free round comes first. *)
  let choices ~per_round c =
    let round = c.next_round in
    let points victim =
      let p = c.procs.(Pid.to_int victim - 1) in
      Adversary.Canonical.distinct_points
        ~dests:(Pid.Set.of_list (List.map fst (A.data_sends p.state ~round)))
        ~syncs:(List.length (A.sync_sends p.state ~round))
      |> Seq.map (fun point -> (victim, point))
      |> List.of_seq
    in
    Seq.concat_map
      (fun k ->
        Seq.concat_map
          (fun victims ->
            Adversary.Combinatorics.sequence (List.map List.to_seq victims))
          (Adversary.Combinatorics.choose k (List.map points (running c))))
      (Adversary.Combinatorics.upto (min per_round (c.t - c.crashes)))

  let search ~per_round ?(stop = fun _ -> false) root =
    let seen = Hashtbl.create 1024 and queue = Queue.create () in
    let found = ref [] in
    let exception Stop in
    let visit parent config =
      let key = fingerprint config in
      match Hashtbl.find_opt seen key with
      | Some node -> node
      | None ->
        let node = { id = Hashtbl.length seen; config; parent; succs = [] } in
        Hashtbl.add seen key node;
        found := node :: !found;
        Queue.push node queue;
        if stop config then raise Stop;
        node
    in
    (* First in, first out: the queue drains one round's layer before the
       next, so every successor is discovered after the node it was reached
       from. *)
    (try
       ignore (visit None root);
       while not (Queue.is_empty queue) do
         let node = Queue.pop queue in
         let c = node.config in
         if running c <> [] && c.next_round <= c.t + 2 then
           Seq.iter
             (fun crashes ->
               let child = visit (Some (node, crashes)) (step c ~crashes) in
               if not (List.memq child node.succs) then
                 node.succs <- child :: node.succs)
             (choices ~per_round c)
       done
     with Stop -> ());
    Array.of_list (List.rev !found)

  let rec schedule node =
    match node.parent with
    | None -> Schedule.empty
    | Some (parent, crashes) ->
      let round = parent.config.next_round in
      List.fold_left
        (fun sched (pid, point) -> Schedule.add pid (Crash.make ~round point) sched)
        (schedule parent) crashes
end

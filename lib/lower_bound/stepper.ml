open Model

module Make (A : Algo_intf.S) = struct
  include Sync_sim.Reference.Make (A)

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
          Buffer.add_string buf ("D:" ^ string_of_int value);
          if p.active then Buffer.add_string buf ("@" ^ A.fingerprint p.state)
        | Sync_sim.Run_result.Crashed _ -> Buffer.add_string buf "X");
        Buffer.add_char buf ';')
      c.procs;
    Buffer.add_string buf (string_of_int c.crashes);
    Buffer.contents buf

  type node = {
    id : int;
    config : config;
    parent : (node * crash list) option;
    mutable succs : node list;
  }

  (* Every crash list of the round: up to [per_round] active victims
     (within the remaining budget), each at one point per distinct delivery
     of the sends it plans; the failure-free round comes first. *)
  let choices ~per_round c =
    let round = c.next_round in
    let active =
      List.filter
        (fun pid -> c.procs.(Pid.to_int pid - 1).active)
        (Pid.all ~n:(Array.length c.procs))
    in
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
          (Adversary.Combinatorics.choose k (List.map points active)))
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

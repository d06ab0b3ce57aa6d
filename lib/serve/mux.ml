open Model

type config = {
  me : int;
  n : int;
  t : int;
  big_d : float;
  max_rounds : int;
  kill_after : int option;
}

type realized = { instance : int; round : int; phase : Live.Script.phase }

let realized_to_json r =
  Obs.Json.Obj
    [
      ("instance", Obs.Json.Int r.instance);
      ("round", Obs.Json.Int r.round);
      ("phase", Obs.Json.String (Live.Script.phase_to_string r.phase));
    ]

let realized_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Obs.Json.Obj fields ->
    let int name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "realized.%s: missing or not an int" name)
    in
    let* instance = int "instance" in
    let* round = int "round" in
    let* phase =
      match List.assoc_opt "phase" fields with
      | Some (Obs.Json.String s) -> (
        (* Reuse the script parser via a synthetic kill spec. *)
        match Live.Script.parse_kill (Printf.sprintf "p1@r1:%s" s) with
        | Ok k -> Ok k.Live.Script.phase
        | Error why -> Error why)
      | _ -> Error "realized.phase: missing or not a string"
    in
    Ok { instance; round; phase }
  | _ -> Error "realized: not an object"

module Make (A : Live.Binding.ALGO) = struct
  type slot = {
    mutable instance : int;
    mutable state : A.state;
    mutable round : int;
    mutable deadline : float;
    mutable sent : bool;  (* current round's send phase completed *)
    mutable data : (Pid.t * A.msg) list;
    mutable syncs : Pid.t list;
    mutable pending : entry list;  (* frames for rounds not yet entered *)
  }

  and entry = E_data of int * Pid.t * A.msg | E_ctl of int * Pid.t

  type t = {
    cfg : config;
    stats : Stats.t;
    slab : slot Slab.t;
    early : (int, entry list) Hashtbl.t;  (* frames before the submit *)
    decided : Decided.t;
        (* decided and horizon-released instances — a re-submitted
           finished instance is answered from here, or from the log once
           its chunk has spilled *)
    persist : (instance:int -> value:int -> round:int -> unit) option;
        (* WAL staging: runs before the Decide frame is emitted; the
           owner commits before any emitted frame reaches a socket *)
    recall : ((instance:int -> value:int -> round:int -> unit) -> unit) option;
        (* streams the committed log; set only together with [persist],
           and then complete chunks spill *)
    asks : (int, unit) Hashtbl.t;
        (* re-submitted spilled instances, answered at the next commit *)
    emit : dest:int -> Live.Frame.t -> unit;
    mutable mirror : int list;
        (* recently-rejoined peers: every new decision is also sent to
           them as a Catchup, closing the gap between their rejoin
           snapshot and the instances still in flight *)
    mutable mesh_writes : int;
    mutable halted : bool;
    mutable realized : realized list;
  }

  let create cfg ?persist ?recall ~emit () =
    let recall = if persist = None then None else recall in
    {
      cfg;
      stats = Stats.create ();
      slab = Slab.create ~initial:256 ();
      early = Hashtbl.create 64;
      decided = Decided.create ~spill:(recall <> None) ();
      persist;
      recall;
      asks = Hashtbl.create 16;
      emit;
      mirror = [];
      mesh_writes = 0;
      halted = false;
      realized = [];
    }

  let stats t = t.stats
  let active t = Slab.active t.slab
  let halted t = t.halted
  let realized t = t.realized
  let mesh_writes t = t.mesh_writes
  let slab_capacity t = Slab.capacity t.slab
  let slab_reused t = Slab.reused t.slab
  let set_mirror t peers = t.mirror <- peers
  let decided_count t = Decided.count t.decided
  let spilled_chunks t = Decided.spilled_chunks t.decided

  (* Replay one WAL entry: mark decided without emitting or re-persisting.
     Runs before any socket exists, so there is no one to tell yet —
     re-submits and rejoined peers are answered from the table later. *)
  let seed_decision t ~instance ~value ~round =
    if not (Decided.is_decided t.decided instance) then begin
      t.stats.Stats.wal_replayed <- t.stats.Stats.wal_replayed + 1;
      Decided.decide t.decided instance ~value ~round
    end

  (* The owner's commit returned: answer the spilled re-submits of this
     turn with one pass over the log, then spill the chunks that
     completed before the commit. *)
  let committed t =
    match t.recall with
    | Some recall when not t.halted ->
      if Hashtbl.length t.asks > 0 then begin
        recall (fun ~instance ~value ~round ->
            if Hashtbl.mem t.asks instance then begin
              Hashtbl.remove t.asks instance;
              t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })
            end);
        Hashtbl.reset t.asks
      end;
      Decided.spill t.decided
    | Some _ | None -> ()

  let catchup t ~peer =
    let count = ref 0 in
    let send ~instance ~value ~round =
      incr count;
      t.stats.Stats.catchup_out <- t.stats.Stats.catchup_out + 1;
      t.emit ~dest:peer (Live.Frame.Catchup { instance; value; round })
    in
    (match t.recall with
    | Some recall -> recall send
    | None -> Decided.iter t.decided send);
    t.emit ~dest:peer
      (Live.Frame.Catchup { instance = 0; value = !count; round = 0 });
    !count

  (* Adopt a decision a peer reached (catch-up batch at rejoin, or a
     mirrored decide for an instance that was in flight while this node
     was down).  Adopting beats re-running: a lone re-run of an instance
     the rest of the mesh already finished could converge on a different
     value.  Also upgrades an instance this node gave up on — the peer's
     decision is the one its clients saw. *)
  let adopt t ~now:_ ~instance ~value ~round =
    if not (Decided.is_decided t.decided instance) then begin
      t.stats.Stats.catchup_in <- t.stats.Stats.catchup_in + 1;
      Decided.decide t.decided instance ~value ~round;
      Option.iter (fun persist -> persist ~instance ~value ~round) t.persist;
      Hashtbl.remove t.early instance;
      if Slab.find t.slab ~instance <> None then
        Slab.release t.slab ~instance;
      t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })
    end

  let budget_left t =
    match t.cfg.kill_after with
    | Some k -> t.mesh_writes < k
    | None -> true

  (* Freeze every surviving instance at its realized crash point.  The
     instance caught mid-send keeps its partial-write phase; all others
     realize as Before_send/After_send at their current round, which is
     exactly what a whole-process kill means for them: their next write
     never happens. *)
  let halt t ~mid =
    t.halted <- true;
    let mid_inst =
      match mid with Some (r : realized) -> r.instance | None -> -1
    in
    let acc = ref (match mid with Some r -> [ r ] | None -> []) in
    Slab.iter t.slab (fun id slot ->
        if id <> mid_inst then
          acc :=
            {
              instance = id;
              round = slot.round;
              phase =
                (if slot.sent then Live.Script.After_send
                 else Live.Script.Before_send);
            }
            :: !acc);
    t.realized <-
      List.sort
        (fun (a : realized) (b : realized) -> compare a.instance b.instance)
        !acc

  (* The send phase of [slot]'s current round.  Mesh writes burn the kill
     budget one frame at a time, so a scripted kill lands between two
     writes of one instance's round — the paper's sequential-write prefix
     crash, realized mid-storm. *)
  let send_round t slot =
    let round = slot.round in
    let data = A.data_sends slot.state ~round in
    let syncs = A.sync_sends slot.state ~round in
    let d_count = List.length data in
    let c_count = List.length syncs in
    let written = ref 0 in
    let ok = ref true in
    List.iter
      (fun (dest, msg) ->
        if !ok then
          if budget_left t then begin
            t.mesh_writes <- t.mesh_writes + 1;
            t.emit ~dest:(Pid.to_int dest)
              (Live.Frame.Data
                 { instance = slot.instance; round; payload = A.encode_msg msg });
            incr written
          end
          else ok := false)
      data;
    List.iter
      (fun dest ->
        if !ok then
          if budget_left t then begin
            t.mesh_writes <- t.mesh_writes + 1;
            t.emit ~dest:(Pid.to_int dest)
              (Live.Frame.Ctl { instance = slot.instance; round });
            incr written
          end
          else ok := false)
      syncs;
    if !ok then begin
      slot.sent <- true;
      `Sent
    end
    else begin
      let k = !written in
      let phase =
        if k = 0 then Live.Script.Before_send
        else if k < d_count then Live.Script.During_data k
        else if k < d_count + c_count then Live.Script.During_ctl (k - d_count)
        else Live.Script.After_send
      in
      halt t ~mid:(Some { instance = slot.instance; round; phase });
      `Halted
    end

  let entry_round = function E_data (r, _, _) -> r | E_ctl (r, _) -> r

  let apply_entry slot = function
    | E_data (_, from, msg) -> slot.data <- (from, msg) :: slot.data
    | E_ctl (_, from) ->
      if not (List.exists (Pid.equal from) slot.syncs) then
        slot.syncs <- from :: slot.syncs

  let round_done t slot =
    slot.sent
    && List.for_all
         (fun s -> List.exists (Pid.equal s) slot.syncs)
         (A.round_senders ~n:t.cfg.n ~me:(Pid.of_int t.cfg.me)
            ~round:slot.round)

  let by_pid a b = compare (Pid.to_int a) (Pid.to_int b)

  let rec advance t slot ~now ~fast =
    if fast then t.stats.Stats.fast_rounds <- t.stats.Stats.fast_rounds + 1
    else t.stats.Stats.expired_rounds <- t.stats.Stats.expired_rounds + 1;
    let round = slot.round in
    let data =
      List.sort (fun (a, _) (b, _) -> by_pid a b) slot.data
    in
    let syncs = List.sort_uniq by_pid slot.syncs in
    let state, decision = A.compute slot.state ~round ~data ~syncs in
    slot.state <- state;
    match decision with
    | Some value ->
      t.stats.Stats.decides <- t.stats.Stats.decides + 1;
      let instance = slot.instance in
      Decided.decide t.decided instance ~value ~round;
      Option.iter (fun persist -> persist ~instance ~value ~round) t.persist;
      t.emit ~dest:0 (Live.Frame.Decide { instance; value; round });
      List.iter
        (fun peer ->
          t.stats.Stats.catchup_out <- t.stats.Stats.catchup_out + 1;
          t.emit ~dest:peer (Live.Frame.Catchup { instance; value; round }))
        t.mirror;
      Slab.release t.slab ~instance
    | None ->
      if round >= t.cfg.max_rounds then begin
        (* Past the horizon nothing can decide (more deaths than [t]);
           release the slot and let the client time the instance out. *)
        Decided.give_up t.decided slot.instance;
        Slab.release t.slab ~instance:slot.instance
      end
      else begin
        slot.round <- round + 1;
        slot.sent <- false;
        slot.data <- [];
        slot.syncs <- [];
        start_round t slot ~now
      end

  and start_round t slot ~now =
    match send_round t slot with
    | `Halted -> ()
    | `Sent ->
      let round = slot.round in
      let stay, arrived =
        List.partition (fun e -> entry_round e <> round) slot.pending
      in
      slot.pending <- stay;
      List.iter (apply_entry slot) arrived;
      slot.deadline <- now +. t.cfg.big_d;
      if round_done t slot then advance t slot ~now ~fast:true

  let submit t ~now ~instance ~proposal =
    if t.halted then ()
    else if Decided.finished t.decided instance then (
      (* Decided long ago (or given up): serve the logged decision instead
         of re-running the instance — a late or reconnecting client gets
         the same answer the first one did.  A spilled decision waits for
         the turn's single pass over the log. *)
      match Decided.status t.decided instance with
      | Decided.Decided (value, round) ->
        t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })
      | Decided.Spilled -> Hashtbl.replace t.asks instance ()
      | Decided.Gave_up | Decided.Unfinished -> ())
    else if Slab.find t.slab ~instance = None then begin
      t.stats.Stats.submits <- t.stats.Stats.submits + 1;
      let me = Pid.of_int t.cfg.me in
      let fresh_state () = A.init ~n:t.cfg.n ~t:t.cfg.t ~me ~proposal in
      let slot =
        Slab.acquire t.slab ~instance
          ~create:(fun () ->
            {
              instance;
              state = fresh_state ();
              round = 1;
              deadline = infinity;
              sent = false;
              data = [];
              syncs = [];
              pending = [];
            })
          ~recycle:(fun s ->
            s.instance <- instance;
            s.state <- fresh_state ();
            s.round <- 1;
            s.deadline <- infinity;
            s.sent <- false;
            s.data <- [];
            s.syncs <- [];
            s.pending <- [])
      in
      (match Hashtbl.find_opt t.early instance with
      | Some entries ->
        Hashtbl.remove t.early instance;
        slot.pending <- entries
      | None -> ());
      start_round t slot ~now
    end

  let entry_of ~from (v : Live.Frame.view) =
    match v.Live.Frame.kind with
    | Live.Frame.K_data -> (
      match A.decode_msg_view v with
      | Ok msg -> Some (E_data (v.Live.Frame.round, from, msg))
      | Error _ -> None)
    | Live.Frame.K_ctl -> Some (E_ctl (v.Live.Frame.round, from))
    | _ -> None

  let on_view t ~now ~from (v : Live.Frame.view) =
    let from = Pid.of_int from in
    if not t.halted then begin
      t.stats.Stats.frames_in <- t.stats.Stats.frames_in + 1;
      match v.Live.Frame.kind with
      | Live.Frame.K_hello | Live.Frame.K_decide -> ()
      | Live.Frame.K_catchup ->
        (* Round 0 is the end-of-batch marker, handled by the engine; a
           real decision always has round >= 1. *)
        if v.Live.Frame.round >= 1 && v.Live.Frame.round <= Decided.max_round
        then
          adopt t ~now ~instance:v.Live.Frame.instance
            ~value:v.Live.Frame.value ~round:v.Live.Frame.round
      | Live.Frame.K_submit ->
        submit t ~now ~instance:v.Live.Frame.instance
          ~proposal:v.Live.Frame.value
      | Live.Frame.K_data | Live.Frame.K_ctl -> (
        let instance = v.Live.Frame.instance in
        let round = v.Live.Frame.round in
        if Decided.finished t.decided instance then
          t.stats.Stats.dropped_frames <- t.stats.Stats.dropped_frames + 1
        else
          match Slab.find t.slab ~instance with
          | Some slot ->
            if round < slot.round then
              t.stats.Stats.late_frames <- t.stats.Stats.late_frames + 1
            else if round > slot.round then (
              match entry_of ~from v with
              | Some e -> slot.pending <- e :: slot.pending
              | None ->
                t.stats.Stats.dropped_frames <-
                  t.stats.Stats.dropped_frames + 1)
            else (
              match entry_of ~from v with
              | Some e ->
                apply_entry slot e;
                if round_done t slot then advance t slot ~now ~fast:true
              | None ->
                t.stats.Stats.dropped_frames <-
                  t.stats.Stats.dropped_frames + 1)
          | None -> (
            (* The local client has not submitted this instance yet; park
               the frame so a slow submit still finds the round intact. *)
            match entry_of ~from v with
            | Some e ->
              let q =
                Option.value ~default:[] (Hashtbl.find_opt t.early instance)
              in
              Hashtbl.replace t.early instance (e :: q)
            | None ->
              t.stats.Stats.dropped_frames <- t.stats.Stats.dropped_frames + 1))
    end

  let expire t ~now =
    if not t.halted then begin
      let due = ref [] in
      Slab.iter t.slab (fun _ slot ->
          if slot.sent && slot.deadline <= now then due := slot :: !due);
      List.iter
        (fun slot ->
          (* A slot may have advanced or finished while an earlier
             expiry cascaded; re-check before computing. *)
          let still_bound =
            match Slab.find t.slab ~instance:slot.instance with
            | Some s -> s == slot
            | None -> false
          in
          if (not t.halted) && still_bound && slot.sent && slot.deadline <= now
          then advance t slot ~now ~fast:false)
        (List.rev !due)
    end

  let next_deadline t =
    if t.halted then None
    else begin
      let best = ref infinity in
      Slab.iter t.slab (fun _ slot ->
          if slot.sent && slot.deadline < !best then best := slot.deadline);
      if !best = infinity then None else Some !best
    end
end

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
  module View = Sync_sim.Round_view

  type entry = E_data of int * int * A.msg | E_ctl of int * int
      (* round, sender (and payload) of a frame for a round not entered *)

  (* One instance in flight.  The current round's inbox is recycled with
     the slot: [from]/[msgs] hold the Data received so far, sorted by
     sender with ties newest first (the order a list-API [compute] was
     always given), and [ctl] has bit [sender - 1] set once that sender's
     Ctl arrived.  A peer frame that outruns the local Submit opens the
     slot, unsubmitted: it waits in the inbox (or [pending]) as it would
     have after the Submit. *)
  type slot = {
    mutable instance : int;
    mutable submitted : bool;
    mutable state : A.state;
    mutable round : int;
    mutable deadline : float;
    mutable sent : bool;  (* current round's send phase completed *)
    mutable from : int array;
    mutable msgs : A.msg array;  (* [||] until the slot's first Data *)
    mutable len : int;
    mutable ctl : int;
    mutable pending : entry list;  (* frames for rounds not yet entered *)
  }

  type t = {
    cfg : config;
    stats : Stats.t;
    slab : slot Slab.t;
    none : slot;  (* what [Slab.find] answers for an unbound instance *)
    mutable unsubmitted : int;  (* slots a peer frame opened *)
    mutable parked : int;
    decided : Decided.t;
        (* decided and horizon-released instances — a re-submitted
           finished instance is answered from here, or from the log once
           its chunk has spilled *)
    persist : (instance:int -> value:int -> round:int -> unit) option;
        (* WAL staging: runs before the Decide frame is emitted; the
           owner commits before any emitted Decide or Catchup reaches a
           socket *)
    log : Wal.t option;
        (* the committed log, read back; set only together with
           [persist], and then complete chunks spill *)
    asks : (int, unit) Hashtbl.t;
        (* re-submitted spilled instances, answered at the next commit *)
    emit : dest:int -> Live.Frame.t -> unit;
    mutable mirror : int list;
        (* recently-rejoined peers: every new decision is also sent to
           them as a Catchup, closing the gap between their rejoin
           snapshot and the instances still in flight *)
    masks : int array;
        (* per round: the Ctl senders whose arrival completes it
           ([A.round_senders] as a bit set) *)
    view : A.msg View.t;  (* repointed at each slot's inbox in turn *)
    sync_words : int array;  (* the view's one-word Ctl set *)
    emitter : A.msg Sync_sim.Emitter.t;
    (* The round [A.send] is emitting: its frames are built on first use
       ([no_frame] until then) and shared by every destination, so the
       batcher encodes each once. *)
    mutable s_instance : int;
    mutable s_round : int;
    mutable s_writes : int;  (* mesh writes the round made *)
    mutable s_cut : bool;  (* a write found the budget spent *)
    mutable s_msg : A.msg array;  (* [| the message [s_data] carries |] *)
    mutable s_data : Live.Frame.t;
    mutable s_ctl : Live.Frame.t;
    mutable budget : int;  (* mesh writes left before the kill *)
    mutable mesh_writes : int;
    mutable halted : bool;
    mutable realized : realized list;
  }

  let no_frame = Live.Frame.Hello { node = 0 }

  (* The send callbacks.  Every write spends one unit of the kill budget
     (unbounded without [kill_after]); a write that finds it spent is
     cut, and so is every later one — the paper's sequential-write prefix
     crash, realized mid-storm. *)
  let on_data t dest msg =
    if t.budget = 0 then t.s_cut <- true
    else begin
      t.budget <- t.budget - 1;
      t.mesh_writes <- t.mesh_writes + 1;
      t.s_writes <- t.s_writes + 1;
      if t.s_data == no_frame || t.s_msg.(0) != msg then begin
        if Array.length t.s_msg = 0 then t.s_msg <- [| msg |]
        else t.s_msg.(0) <- msg;
        t.s_data <-
          Live.Frame.Data
            { instance = t.s_instance; round = t.s_round; payload = A.encode_msg msg }
      end;
      t.emit ~dest t.s_data
    end

  let on_sync t dest =
    if t.budget = 0 then t.s_cut <- true
    else begin
      t.budget <- t.budget - 1;
      t.mesh_writes <- t.mesh_writes + 1;
      t.s_writes <- t.s_writes + 1;
      if t.s_ctl == no_frame then
        t.s_ctl <- Live.Frame.Ctl { instance = t.s_instance; round = t.s_round };
      t.emit ~dest t.s_ctl
    end

  let create cfg ?persist ?log ~emit () =
    if cfg.n > Sys.int_size then
      invalid_arg "Mux.create: n over 63 does not fit the one-word Ctl set";
    let log = if persist = None then None else log in
    let me = Pid.of_int cfg.me in
    let make () =
      {
        instance = -1;
        submitted = false;
        state = A.init ~n:cfg.n ~t:cfg.t ~me ~proposal:0;
        round = 1;
        deadline = infinity;
        sent = false;
        from = Array.make cfg.n 0;
        msgs = [||];
        len = 0;
        ctl = 0;
        pending = [];
      }
    in
    let t =
      {
        cfg;
        stats = Stats.create ();
        slab = Slab.create ~initial:256 ~make ();
        none = make ();
        unsubmitted = 0;
        parked = 0;
        decided = Decided.create ~spill:(log <> None) ();
        persist;
        log;
        asks = Hashtbl.create 16;
        emit;
        mirror = [];
        masks =
          Array.init (cfg.max_rounds + 1) (fun round ->
              if round = 0 then 0
              else
                List.fold_left
                  (fun m p -> m lor (1 lsl (Pid.to_int p - 1)))
                  0
                  (A.round_senders ~n:cfg.n ~me ~round));
        view = View.create ();
        sync_words = [| 0 |];
        emitter = Sync_sim.Emitter.create ();
        s_instance = 0;
        s_round = 0;
        s_writes = 0;
        s_cut = false;
        s_msg = [||];
        s_data = no_frame;
        s_ctl = no_frame;
        budget =
          (match cfg.kill_after with Some k -> max 0 k | None -> max_int);
        mesh_writes = 0;
        halted = false;
        realized = [];
      }
    in
    Sync_sim.Emitter.install t.emitter ~on_data:(on_data t) ~on_sync:(on_sync t);
    t

  let stats t = t.stats
  let active t = Slab.active t.slab - t.unsubmitted
  let halted t = t.halted
  let realized t = t.realized
  let mesh_writes t = t.mesh_writes
  let parked t = t.parked
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
    match t.log with
    | Some log when not t.halted ->
      if Hashtbl.length t.asks > 0 then begin
        Wal.iter log (fun ~instance ~value ~round ->
            if Hashtbl.mem t.asks instance then begin
              Hashtbl.remove t.asks instance;
              t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })
            end);
        Hashtbl.reset t.asks
      end;
      Decided.spill t.decided
    | Some _ | None -> ()

  (* What a catch-up has left to send: the rest of the log, or the
     table from a chunk number on. *)
  type catchup = {
    to_peer : int;
    mutable count : int;
    mutable left : [ `Log of Wal.cursor | `Table of int | `Done ];
  }

  let catchup t ~peer =
    {
      to_peer = peer;
      count = 0;
      left =
        (match t.log with Some w -> `Log (Wal.cursor w) | None -> `Table 0);
    }

  let catchup_step t c =
    let send ~instance ~value ~round =
      c.count <- c.count + 1;
      t.stats.Stats.catchup_out <- t.stats.Stats.catchup_out + 1;
      t.emit ~dest:c.to_peer (Live.Frame.Catchup { instance; value; round })
    in
    let more =
      match c.left with
      | `Log cur -> Wal.next cur send
      | `Table k -> (
        match Decided.iter_from t.decided k send with
        | Some k ->
          c.left <- `Table k;
          true
        | None -> false)
      | `Done -> false
    in
    if more then `More
    else begin
      (match c.left with
      | `Done -> ()
      | `Log _ | `Table _ ->
        c.left <- `Done;
        t.emit ~dest:c.to_peer
          (Live.Frame.Catchup { instance = 0; value = c.count; round = 0 }));
      `Done c.count
    end

  let release t slot =
    if not slot.submitted then t.unsubmitted <- t.unsubmitted - 1;
    Slab.release t.slab ~instance:slot.instance

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
      let slot = Slab.find t.slab ~instance ~default:t.none in
      if slot != t.none then release t slot;
      t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })
    end

  (* Freeze every surviving instance at its realized crash point.  The
     instance caught mid-send keeps its partial-write phase; all others
     realize as Before_send/After_send at their current round, which is
     exactly what a whole-process kill means for them: their next write
     never happens.  An instance never submitted here is not one of this
     node's runs. *)
  let halt t (mid : realized) =
    t.halted <- true;
    let acc = ref [ mid ] in
    Slab.iter t.slab (fun id slot ->
        if id <> mid.instance && slot.submitted then
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

  (* The send phase of [slot]'s current round, through the emitter's
     callbacks.  If the kill budget cut it, the phase it realized follows
     from the writes it made and the round's [send_plan]. *)
  let send_round t slot =
    let round = slot.round and instance = slot.instance in
    t.s_instance <- instance;
    t.s_round <- round;
    t.s_writes <- 0;
    t.s_data <- no_frame;
    t.s_ctl <- no_frame;
    A.send slot.state ~round t.emitter;
    if t.s_cut then begin
      let data, ctl =
        A.send_plan ~n:t.cfg.n ~me:(Pid.of_int t.cfg.me) ~round
      in
      halt t
        {
          instance;
          round;
          phase =
            Live.Script.phase_of_writes t.s_writes ~data:(List.length data)
              ~ctl:(List.length ctl);
        };
      false
    end
    else begin
      slot.sent <- true;
      true
    end

  (* Insert one Data into the inbox: after every smaller sender, before
     the equal ones (newest first). *)
  let add_data slot sender msg =
    if slot.len = Array.length slot.from then begin
      (* More Data than peers: a duplicating sender.  Make room. *)
      let from = Array.make (2 * slot.len) 0 in
      Array.blit slot.from 0 from 0 slot.len;
      slot.from <- from
    end;
    if Array.length slot.msgs < Array.length slot.from then begin
      let msgs = Array.make (Array.length slot.from) msg in
      Array.blit slot.msgs 0 msgs 0 slot.len;
      slot.msgs <- msgs
    end;
    let k = ref slot.len in
    while !k > 0 && slot.from.(!k - 1) >= sender do
      slot.from.(!k) <- slot.from.(!k - 1);
      slot.msgs.(!k) <- slot.msgs.(!k - 1);
      decr k
    done;
    slot.from.(!k) <- sender;
    slot.msgs.(!k) <- msg;
    slot.len <- slot.len + 1

  let add_ctl slot sender = slot.ctl <- slot.ctl lor (1 lsl (sender - 1))
  let entry_round = function E_data (r, _, _) | E_ctl (r, _) -> r

  let apply_entry slot = function
    | E_data (_, from, msg) -> add_data slot from msg
    | E_ctl (_, from) -> add_ctl slot from

  let round_done t slot =
    let mask = t.masks.(slot.round) in
    slot.sent && slot.ctl land mask = mask

  let decide t slot ~value ~round =
    t.stats.Stats.decides <- t.stats.Stats.decides + 1;
    let instance = slot.instance in
    Decided.decide t.decided instance ~value ~round;
    (match t.persist with
    | Some persist -> persist ~instance ~value ~round
    | None -> ());
    t.emit ~dest:0 (Live.Frame.Decide { instance; value; round });
    if t.mirror <> [] then
      List.iter
        (fun peer ->
          t.stats.Stats.catchup_out <- t.stats.Stats.catchup_out + 1;
          t.emit ~dest:peer (Live.Frame.Catchup { instance; value; round }))
        t.mirror;
    release t slot

  (* The round's computation: [A.receive] over the slot's inbox. *)
  let rec advance t slot ~now ~fast =
    if fast then t.stats.Stats.fast_rounds <- t.stats.Stats.fast_rounds + 1
    else t.stats.Stats.expired_rounds <- t.stats.Stats.expired_rounds + 1;
    let round = slot.round and v = t.view in
    t.sync_words.(0) <- slot.ctl;
    View.set_arrays v ~from:slot.from ~msgs:slot.msgs ~sync_words:t.sync_words;
    View.set_segment v ~off:0 ~len:slot.len ~swoff:0 ~swlen:1;
    slot.state <- A.receive slot.state ~round v;
    if View.decided v then decide t slot ~value:(View.decision v) ~round
    else if round >= t.cfg.max_rounds then begin
      (* Past the horizon nothing can decide (more deaths than [t]);
         release the slot and let the client time the instance out. *)
      Decided.give_up t.decided slot.instance;
      release t slot
    end
    else begin
      slot.round <- round + 1;
      slot.sent <- false;
      slot.len <- 0;
      slot.ctl <- 0;
      start_round t slot ~now
    end

  and start_round t slot ~now =
    if send_round t slot then begin
      if slot.pending <> [] then begin
        let round = slot.round in
        let stay, arrived =
          List.partition (fun e -> entry_round e <> round) slot.pending
        in
        slot.pending <- stay;
        (* Oldest first, so ties end newest first as on arrival. *)
        List.iter (apply_entry slot) (List.rev arrived)
      end;
      slot.deadline <- now +. t.cfg.big_d;
      if round_done t slot then advance t slot ~now ~fast:true
    end

  (* Bind [instance] to a slot at round 1 with an empty inbox. *)
  let open_slot t ~instance =
    let slot = Slab.acquire t.slab ~instance in
    slot.instance <- instance;
    slot.submitted <- false;
    slot.round <- 1;
    slot.deadline <- infinity;
    slot.sent <- false;
    slot.len <- 0;
    slot.ctl <- 0;
    slot.pending <- [];
    slot

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
    else begin
      let slot = Slab.find t.slab ~instance ~default:t.none in
      if slot == t.none || not slot.submitted then begin
        t.stats.Stats.submits <- t.stats.Stats.submits + 1;
        let slot =
          if slot == t.none then open_slot t ~instance
          else begin
            t.unsubmitted <- t.unsubmitted - 1;
            slot
          end
        in
        slot.submitted <- true;
        slot.state <-
          A.init ~n:t.cfg.n ~t:t.cfg.t ~me:(Pid.of_int t.cfg.me) ~proposal;
        start_round t slot ~now
      end
    end

  let drop t = t.stats.Stats.dropped_frames <- t.stats.Stats.dropped_frames + 1

  (* A Data or Ctl frame for [slot]'s current round or a later one: into
     the inbox, or onto [pending] until the slot enters its round. *)
  let take t slot ~now ~from (v : Live.Frame.view) =
    let round = v.Live.Frame.round in
    let current = round = slot.round in
    (match v.Live.Frame.kind with
    | Live.Frame.K_ctl ->
      if current then add_ctl slot from
      else slot.pending <- E_ctl (round, from) :: slot.pending
    | _ -> (
      match A.decode_msg_view v with
      | Ok msg ->
        if current then add_data slot from msg
        else slot.pending <- E_data (round, from, msg) :: slot.pending
      | Error _ -> drop t));
    if current && round_done t slot then advance t slot ~now ~fast:true

  let on_view t ~now ~from (v : Live.Frame.view) =
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
      | Live.Frame.K_data | Live.Frame.K_ctl ->
        let instance = v.Live.Frame.instance in
        let round = v.Live.Frame.round in
        if Decided.finished t.decided instance then drop t
        else
          let slot = Slab.find t.slab ~instance ~default:t.none in
          let slot =
            if slot != t.none then slot
            else begin
              (* The local client has not submitted this instance yet:
                 open its slot, so the frame waits in the inbox a
                 Submit will find. *)
              t.unsubmitted <- t.unsubmitted + 1;
              open_slot t ~instance
            end
          in
          if not slot.submitted then t.parked <- t.parked + 1;
          if round < slot.round then
            t.stats.Stats.late_frames <- t.stats.Stats.late_frames + 1
          else take t slot ~now ~from v
    end

  (* Advance every slot whose round deadline has passed, in slot order.
     An advance touches only its own slot, so one pass sees each slot as
     a snapshot taken first would have. *)
  let expire t ~now =
    if not t.halted then
      Slab.iter t.slab (fun _ slot ->
          if (not t.halted) && slot.sent && slot.deadline <= now then
            advance t slot ~now ~fast:false)

  let next_deadline t =
    if t.halted then None
    else begin
      let best = ref infinity in
      Slab.iter t.slab (fun _ slot ->
          if slot.sent && slot.deadline < !best then best := slot.deadline);
      if !best = infinity then None else Some !best
    end
end

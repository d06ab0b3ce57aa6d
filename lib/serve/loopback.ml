module Make (A : Live.Binding.ALGO) = struct
  module E = Engine.Make (A)

  type config = {
    n : int;
    t : int;
    instances : int;
    window : int;
    big_d : float;
    batch : bool;
    kill : Report.kill_spec option;
    max_rounds : int option;
    proposals : int -> int -> int;
  }

  (* The client end of one node's client channel: the queue that writes
     its Submits and the decoder of its Decide stream. *)
  type channel = { fd : Unix.file_descr; out : Outq.t; dec : Live.Frame.decoder }

  let run_counting_words cfg =
    if cfg.n < 2 then invalid_arg "Serve.Loopback: n must be >= 2";
    if cfg.instances < 0 then invalid_arg "Serve.Loopback: negative instances";
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let n = cfg.n in
    let window = max 1 cfg.window in
    let started = Unix.gettimeofday () in
    let now = ref 0.0 in
    let max_rounds =
      match cfg.max_rounds with Some m -> m | None -> cfg.t + 1
    in
    let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* [mesh.(i).(j)]: node [i + 1]'s end of its link to node [j + 1]. *)
    let mesh = Array.make_matrix n n None in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a, b = pair () in
        mesh.(i).(j) <- Some a;
        mesh.(j).(i) <- Some b
      done
    done;
    let client_links = Array.init n (fun _ -> pair ()) in
    let channels =
      Array.map
        (fun (_, fd) ->
          Unix.set_nonblock fd;
          { fd; out = Outq.create (); dec = Live.Frame.decoder () })
        client_links
    in
    let quiet = open_out_bin Filename.null in
    let engines =
      Array.init n (fun idx ->
          let me = idx + 1 in
          let kill_after =
            match cfg.kill with
            | Some k when k.Report.node = me -> Some k.Report.after_frames
            | _ -> None
          in
          E.create
            ~clock:(fun () -> !now)
            ~peers:mesh.(idx)
            ~clients:[ fst client_links.(idx) ]
            {
              Engine.me;
              n;
              t = cfg.t;
              transport = `Unix Filename.current_dir_name;
              big_d = cfg.big_d;
              max_rounds;
              batch = cfg.batch;
              kill_after;
              linger = true;
              wal_dir = None;
              rejoin = false;
              dial = None;
              status = quiet;
              log = quiet;
            })
    in
    let running = Array.make n true in
    let victim = ref None in
    let decisions = Array.init cfg.instances (fun _ -> Array.make n None) in
    let submit_t = Array.make (max 1 cfg.instances) 0.0 in
    let latencies = ref [] in
    let engine_words = ref 0.0 in
    let buf = Bytes.create 65536 in
    (* Every byte that moves shows up here: as an engine's write or
       consumed frame, or as client-side traffic. *)
    let client_moves = ref 0 in
    let progress () =
      Array.fold_left
        (fun acc e ->
          let s = E.stats e in
          acc + s.Stats.write_calls + s.Stats.frames_in + s.Stats.submits)
        !client_moves engines
    in
    let read_decides idx =
      let ch = channels.(idx) in
      let rec decode () =
        match Live.Frame.pop_view ch.dec with
        | `View v ->
          let i = v.Live.Frame.instance in
          if
            v.Live.Frame.kind = Live.Frame.K_decide
            && i >= 0 && i < cfg.instances
            && decisions.(i).(idx) = None
          then
            decisions.(i).(idx) <- Some (v.Live.Frame.value, v.Live.Frame.round);
          decode ()
        | `Need_more -> ()
        | `Corrupt why ->
          failwith ("Serve.Loopback: corrupt client stream: " ^ why)
      in
      let rec read () =
        match Live.Sockets.read_chunk ch.fd buf with
        | `Data k ->
          incr client_moves;
          Live.Frame.feed ch.dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
          decode ();
          read ()
        | `Closed | `Nothing -> ()
      in
      read ()
    in
    (* One pass: every engine takes one turn at timeout 0, in descending
       node order — so the round-1 coordinator (p1) reads its Submits
       only once every other node has opened the instance, the common
       client pattern; a frame that outruns a Submit waits in the slot
       it opens (see [Mux.on_view]) for the rest.  A
       halted victim's fds are closed, as the fleet's SIGKILL would:
       its peers read what it flushed, then EOF. *)
    let pass () =
      let before = progress () in
      for idx = n - 1 downto 0 do
        if running.(idx) then begin
          let ch = channels.(idx) in
          if not (Outq.is_empty ch.out) then begin
            incr client_moves;
            ignore (Outq.drain ch.out ch.fd)
          end;
          let e = engines.(idx) in
          let before = Gc.minor_words () in
          let status = E.step e ~timeout:0.0 in
          engine_words := !engine_words +. (Gc.minor_words () -. before);
          match status with
          | `Running -> ()
          | `Halted ->
            running.(idx) <- false;
            victim := Some (idx + 1, E.realized e);
            E.close e
          | `Exited -> running.(idx) <- false
        end;
        read_decides idx
      done;
      progress () <> before
    in
    let next_submit = ref 0 in
    let inflight = ref [] in
    let is_settled i =
      Array.for_all2 (fun d live -> d <> None || not live) decisions.(i) running
    in
    let settle_pass () =
      inflight :=
        List.filter
          (fun i ->
            if is_settled i then begin
              latencies := (!now -. submit_t.(i)) :: !latencies;
              false
            end
            else true)
          !inflight
    in
    (* One coalesced Submit burst per node per refill. *)
    let refill () =
      let fresh = ref [] in
      while List.length !inflight < window && !next_submit < cfg.instances do
        let i = !next_submit in
        submit_t.(i) <- !now;
        inflight := i :: !inflight;
        fresh := i :: !fresh;
        incr next_submit
      done;
      Array.iteri
        (fun idx ch ->
          if running.(idx) && !fresh <> [] then begin
            let b = Buffer.create 256 in
            List.iter
              (fun i ->
                Buffer.add_string b
                  (Live.Frame.encode
                     (Live.Frame.Submit
                        { instance = i; proposal = cfg.proposals i (idx + 1) })))
              (List.rev !fresh);
            Outq.push ch.out
              (Outq.chunk ~recycle:ignore (Buffer.to_bytes b)
                 ~len:(Buffer.length b))
          end)
        channels;
      !fresh <> []
    in
    let stuck = ref false in
    let guard = ref ((cfg.instances * (max_rounds + 2)) + 64) in
    ignore (refill ());
    while !inflight <> [] && (not !stuck) && !guard > 0 do
      decr guard;
      (* message-speed fixed point at the current instant *)
      let rec instant () =
        while pass () do
          ()
        done;
        settle_pass ();
        if refill () then instant ()
      in
      instant ();
      if !inflight <> [] then begin
        let best = ref infinity in
        Array.iteri
          (fun idx e ->
            if running.(idx) then
              match E.next_deadline e with
              | Some dl when dl < !best -> best := dl
              | _ -> ())
          engines;
        if !best = infinity then stuck := true else now := max !now !best
      end
    done;
    let elapsed = Unix.gettimeofday () -. started in
    let stats =
      Array.to_list (Array.mapi (fun idx e -> (idx + 1, E.stats e)) engines)
    in
    Array.iteri (fun idx e -> if running.(idx) then E.close e) engines;
    Array.iter (fun ch -> Unix.close ch.fd) channels;
    close_out quiet;
    ( Report.build ~n ~t:cfg.t ~proposals:cfg.proposals ~decisions
        ~victim:!victim ~send_plan:A.send_plan ~elapsed ~latencies:!latencies
        ~stats ~kill:cfg.kill,
      !engine_words )

  let run cfg = fst (run_counting_words cfg)
end

module Rwwc = Make (Live.Binding.Rwwc)

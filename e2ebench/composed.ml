(* The traced serve run.  The engines of the measured run live in forked
   processes the benchmark cannot wrap, so this run rebuilds the same
   layers in one process from their public functions: n muxes, each with
   its own batch, an outbound queue and a frame decoder per socketpair
   link, one poll event loop, and a WAL per node when the workload has
   one.  The same generator drives it; every call into a layer is a span.
   Passing no recorder runs the identical composition untraced, which
   prices the tracing itself. *)

module M = Serve.Mux.Make (Serve.Binding.Rwwc)

let span_names =
  [|
    "frame.encode";
    "frame.decode";
    "mux.submit";
    "mux.on_view";
    "mux.expire";
    "batch.add";
    "batch.flush";
    "outq.push";
    "outq.drain";
    "evloop.wait";
    "wal.append";
    "sockets.read";
    "frame.feed";
    "gen.client";
  |]

let s_encode = 0
let s_decode = 1
let s_submit = 2
let s_on_view = 3
let s_expire = 4
let s_add = 5
let s_flush = 6
let s_push = 7
let s_drain = 8
let s_wait = 9
let s_wal = 10
let s_read = 11
let s_feed = 12
let s_gen = 13

type link = {
  fd : Unix.file_descr;
  outq : Serve.Outq.t;
  dec : Live.Frame.decoder;
}

type endpoint = Peer of int * int  (** node, peer *) | Client of int | Gen of int

type result = {
  ops : int;  (** settled instances *)
  failed : int;  (** disagreeing, invalid or unsettled instances *)
  cpu : float;  (** process CPU seconds over the run *)
  stats : Serve.Stats.t;  (** summed over the n muxes *)
  waits : int;  (** Evloop.wait calls *)
  ready : int;  (** descriptors those calls reported ready *)
}

type flight = { mutable miss : int; mutable value : int; mutable bad : bool }

let link fd = { fd; outq = Serve.Outq.create (); dec = Live.Frame.decoder () }

(* The round deadline of the rebuilt muxes.  Nothing crashes here, so every
   round completes on its messages; but the five nodes share one thread,
   and one slow fsync delays every node's reads.  With the fleet's 0.25 s
   deadline such a stall expires rounds whose messages already wait in the
   socket buffers, which breaks the synchrony the algorithm assumes. *)
let big_d = 10.0

let run ?recorder (spec : Fleet_run.spec) ~seconds ~workspace =
  let n = spec.Fleet_run.n in
  let t = max 1 (n - 2) in
  let enter id = match recorder with Some r -> Span.enter r id | None -> () in
  let leave ?req () =
    match recorder with Some r -> Span.leave ?req r | None -> ()
  in
  let now = Live.Sockets.now in
  (* peers.(i).(j): node i+1's end of its link to node j+1 *)
  let peers = Array.make_matrix n n None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      Unix.set_nonblock b;
      peers.(i).(j) <- Some (link a);
      peers.(j).(i) <- Some (link b)
    done
  done;
  let pairs =
    Array.init n (fun _ ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock a;
        Unix.set_nonblock b;
        (link a, link b))
  in
  let client i = snd pairs.(i) and gen i = fst pairs.(i) in
  let wals =
    Array.init n (fun i ->
        if spec.Fleet_run.wal then (
          Proc.mkdir_p workspace;
          let path = Serve.Wal.path ~dir:workspace ~node:(i + 1) in
          match Serve.Wal.recover ~path ~node:(i + 1) with
          | Ok (w, _) -> Some w
          | Error e -> failwith ("wal: " ^ e))
        else None)
  in
  let ev = Serve.Evloop.create ~backend:Serve.Evloop.Poll () in
  let endpoints = Hashtbl.create 64 in
  let register fd e =
    Hashtbl.replace endpoints fd e;
    Serve.Evloop.register ev fd ~read:true ~write:false
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Option.iter (fun l -> register l.fd (Peer (i, j))) peers.(i).(j)
    done;
    register (client i).fd (Client i);
    register (gen i).fd (Gen i)
  done;
  let batches = Array.make n None in
  let batch i = Option.get batches.(i) in
  let push l bytes ~len recycle =
    enter s_push;
    Serve.Outq.push l.outq (Serve.Outq.chunk ~recycle bytes ~len);
    leave ()
  in
  let muxes =
    Array.init n (fun i ->
        let emit ~dest frame =
          enter s_encode;
          let wire = Live.Frame.encode frame in
          leave ();
          enter s_add;
          Serve.Batch.add (batch i) ~dest wire;
          leave ()
        in
        let persist =
          Option.map
            (fun w ~instance ~value ~round ->
              enter s_wal;
              Serve.Wal.append w ~instance ~value ~round;
              leave ~req:instance ())
            wals.(i)
        in
        M.create
          {
            Serve.Mux.me = i + 1;
            n;
            t;
            big_d;
            max_rounds = t + 1;
            kill_after = None;
          }
          ?persist ~emit ())
  in
  Array.iteri
    (fun i m ->
      let send ~dest bytes ~len =
        match if dest = 0 then Some (client i) else peers.(i).(dest - 1) with
        | Some l ->
          push l bytes ~len (Serve.Batch.put_back (batch i));
          `Taken
        | None -> `Done
      in
      batches.(i) <-
        Some (Serve.Batch.create ~n ~batch:true ~stats:(M.stats m) ~send))
    muxes;
  (* Generator state, as in the measured run but with every node alive. *)
  let started = now () in
  let w1 = started +. seconds in
  let inflight : (int, flight) Hashtbl.t = Hashtbl.create 1024 in
  let ops = ref 0 and failed = ref 0 in
  let next_id = ref 0 in
  let arrival =
    match spec.Fleet_run.loop with
    | Open rate ->
      let gen = Inputs.arrivals ~seed:spec.Fleet_run.seed ~rate in
      fun () -> started +. gen ()
    | Closed _ -> fun () -> infinity
  in
  let next_due = ref (arrival ()) in
  let submit ids =
    enter s_gen;
    for p = 0 to n - 1 do
      let b = Buffer.create 256 in
      List.iter
        (fun id ->
          enter s_encode;
          let wire =
            Live.Frame.encode
              (Live.Frame.Submit
                 {
                   instance = id;
                   proposal = Inputs.proposals ~seed:spec.Fleet_run.seed id (p + 1);
                 })
          in
          leave ~req:id ();
          Buffer.add_string b wire)
        ids;
      ignore
        (Live.Sockets.write_all ~deadline:(now () +. 2.0) (gen p).fd
           (Buffer.contents b))
    done;
    List.iter
      (fun id -> Hashtbl.replace inflight id { miss = n; value = -1; bad = false })
      ids;
    leave ()
  in
  let last_refill = ref neg_infinity in
  (* The open loop submits on the measured run's tick. *)
  let refill tnow =
    let due =
      match spec.Fleet_run.loop with
      | Closed _ -> true
      | Open _ -> tnow -. !last_refill >= Fleet_run.tick
    in
    if tnow < w1 && due then begin
      last_refill := tnow;
      let fresh = ref [] in
      (match spec.Fleet_run.loop with
      | Closed w ->
        while Hashtbl.length inflight + List.length !fresh < w do
          fresh := !next_id :: !fresh;
          incr next_id
        done
      | Open _ ->
        while !next_due <= tnow do
          next_due := arrival ();
          fresh := !next_id :: !fresh;
          incr next_id
        done);
      if !fresh <> [] then submit (List.rev !fresh)
    end
  in
  let on_decide (v : Live.Frame.view) =
    match Hashtbl.find_opt inflight v.Live.Frame.instance with
    | None -> ()
    | Some f ->
      let id = v.Live.Frame.instance in
      if f.value < 0 then f.value <- v.Live.Frame.value
      else if f.value <> v.Live.Frame.value then f.bad <- true;
      f.miss <- f.miss - 1;
      if f.miss = 0 then begin
        Hashtbl.remove inflight id;
        if f.bad || not (Inputs.proposed ~seed:spec.Fleet_run.seed ~n id f.value)
        then incr failed;
        incr ops
      end
  in
  let buf = Bytes.create 65536 in
  let read_into l =
    enter s_read;
    let r = Live.Sockets.read_chunk l.fd buf in
    leave ();
    match r with
    | `Data k ->
      enter s_feed;
      Live.Frame.feed l.dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
      leave ();
      true
    | `Closed | `Nothing -> false
  in
  let rec drain_frames l f =
    enter s_decode;
    let r = Live.Frame.pop_view l.dec in
    match r with
    | `View v ->
      leave ~req:v.Live.Frame.instance ();
      f v;
      drain_frames l f
    | `Need_more -> leave ()
    | `Corrupt why ->
      leave ();
      failwith ("composed: corrupt stream: " ^ why)
  in
  let handle fd ~readable ~writable =
    match Hashtbl.find_opt endpoints fd with
    | None -> ()
    | Some (Peer (i, j)) ->
      let l = Option.get peers.(i).(j) in
      if writable then begin
        enter s_drain;
        ignore (Serve.Outq.drain l.outq ~stats:(M.stats muxes.(i)) fd);
        leave ()
      end;
      if readable && read_into l then
        drain_frames l (fun v ->
            enter s_on_view;
            M.on_view muxes.(i) ~now:(now ()) ~from:(j + 1) v;
            leave ~req:v.Live.Frame.instance ())
    | Some (Client i) ->
      let l = client i in
      if writable then begin
        enter s_drain;
        ignore (Serve.Outq.drain l.outq ~stats:(M.stats muxes.(i)) fd);
        leave ()
      end;
      if readable && read_into l then
        drain_frames l (fun v ->
            if v.Live.Frame.kind = Live.Frame.K_submit then begin
              enter s_submit;
              M.submit muxes.(i) ~now:(now ()) ~instance:v.Live.Frame.instance
                ~proposal:v.Live.Frame.value;
              leave ~req:v.Live.Frame.instance ()
            end)
    | Some (Gen i) ->
      let l = gen i in
      if readable then begin
        enter s_gen;
        if read_into l then
          drain_frames l (fun v ->
              if v.Live.Frame.kind = Live.Frame.K_decide then on_decide v);
        leave ()
      end
  in
  let pump i l =
    if not (Serve.Outq.is_empty l.outq) then begin
      enter s_drain;
      let r = Serve.Outq.drain l.outq ~stats:(M.stats muxes.(i)) l.fd in
      leave ();
      Serve.Evloop.register ev l.fd ~read:true ~write:(r = `Blocked)
    end
  in
  let waits = ref 0 and ready = ref 0 in
  let cpu_now () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu0 = cpu_now () in
  refill started;
  while now () < w1 || (Hashtbl.length inflight > 0 && now () < w1 +. 3.0) do
    let tnow = now () in
    refill tnow;
    enter s_wait;
    let k = Serve.Evloop.wait ev ~timeout:0.0 ~handle in
    leave ();
    incr waits;
    ready := !ready + k;
    for i = 0 to n - 1 do
      enter s_expire;
      M.expire muxes.(i) ~now:(now ());
      leave ();
      enter s_flush;
      Serve.Batch.flush (batch i);
      leave ();
      Array.iter (Option.iter (pump i)) peers.(i);
      pump i (client i)
    done;
    (* Nothing moved: sleep to the next tick or round deadline rather than
       spin. *)
    if k = 0 then begin
      let next =
        Array.fold_left
          (fun acc m ->
            match M.next_deadline m with Some d -> Float.min acc d | None -> acc)
          (!last_refill +. Fleet_run.tick) muxes
      in
      let dt = next -. now () in
      if dt > 0.0 then Unix.sleepf dt
    end
  done;
  let cpu = cpu_now () -. cpu0 in
  failed := !failed + Hashtbl.length inflight;
  let stats = Serve.Stats.create () in
  Array.iter (fun m -> Serve.Stats.add stats (M.stats m)) muxes;
  Array.iter (Option.iter Serve.Wal.close) wals;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) endpoints;
  {
    ops = !ops;
    failed = !failed;
    cpu;
    stats;
    waits = !waits;
    ready = !ready;
  }

open Model

type profile = {
  label : string;
  data_dests : victim:Pid.t -> round:int -> Pid.Set.t;
  sync_count : victim:Pid.t -> round:int -> int;
  halts_by : victim:Pid.t -> int option;
  movable : Pid.Set.t;
}

let rotating_coordinator ~n =
  {
    label = "rotating-coordinator";
    data_dests =
      (fun ~victim ~round ->
        let v = Pid.to_int victim in
        if round = v then Pid.Set.of_list (Pid.range ~lo:(v + 1) ~hi:n)
        else Pid.Set.empty);
    sync_count =
      (fun ~victim ~round ->
        let v = Pid.to_int victim in
        if round = v then n - v else 0);
    halts_by = (fun ~victim -> Some (Pid.to_int victim));
    (* Every pid has a distinct role (coordinator of its own round, position
       in the descending commit prefix), so no renaming is sound. *)
    movable = Pid.Set.empty;
  }

let broadcast ~n ~t =
  let everyone = Pid.Set.of_list (Pid.all ~n) in
  {
    label = "broadcast";
    data_dests = (fun ~victim ~round:_ -> Pid.Set.remove victim everyone);
    sync_count = (fun ~victim:_ ~round:_ -> 0);
    halts_by = (fun ~victim:_ -> Some (t + 1));
    movable = everyone;
  }

(* --- point classes -------------------------------------------------------- *)

let point_class ~dests ~syncs point =
  (* What the engine actually delivers for this point: a subset of the
     planned data destinations and a prefix length of the planned syncs. *)
  let delivered, prefix =
    match point with
    | Crash.Before_send -> (Pid.Set.empty, 0)
    | Crash.During_data s -> (Pid.Set.inter s dests, 0)
    | Crash.After_data k -> (dests, min k syncs)
    | Crash.After_send -> (dests, syncs)
  in
  if Pid.Set.is_empty delivered && prefix = 0 then Crash.Before_send
  else if not (Pid.Set.equal delivered dests) then Crash.During_data delivered
  else if prefix = syncs then Crash.After_send
  else Crash.After_data prefix

let canonical_point p ~victim ~round point =
  point_class ~dests:(p.data_dests ~victim ~round)
    ~syncs:(p.sync_count ~victim ~round) point

(* --- schedule normalization (layer 1: point classes + no-op crashes) ------ *)

let normalize p sched =
  List.fold_left
    (fun acc (pid, (ev : Crash.event)) ->
      match p.halts_by ~victim:pid with
      | Some h when ev.round > h ->
        (* The victim has surely decided and halted before this round; the
           engine never applies the crash, so the binding is a no-op. *)
        acc
      | Some _ | None ->
        Schedule.add pid
          (Crash.make ~round:ev.round
             (canonical_point p ~victim:pid ~round:ev.round ev.point))
          acc)
    Schedule.empty (Schedule.bindings sched)

(* --- total order on schedules (for orbit minimization and set compares) --- *)

let point_rank = function
  | Crash.Before_send -> 0
  | Crash.During_data _ -> 1
  | Crash.After_data _ -> 2
  | Crash.After_send -> 3

let compare_point a b =
  match (a, b) with
  | Crash.During_data s1, Crash.During_data s2 -> Pid.Set.compare s1 s2
  | Crash.After_data k1, Crash.After_data k2 -> Int.compare k1 k2
  | _ -> Int.compare (point_rank a) (point_rank b)

let compare_event (a : Crash.event) (b : Crash.event) =
  match Int.compare a.round b.round with
  | 0 -> compare_point a.point b.point
  | c -> c

let compare a b =
  List.compare
    (fun (p1, e1) (p2, e2) ->
      match Pid.compare p1 p2 with 0 -> compare_event e1 e2 | c -> c)
    (Schedule.bindings a) (Schedule.bindings b)

let equal a b = compare a b = 0

(* --- pid permutations (layer 2) ------------------------------------------- *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map (fun rest -> x :: rest) (permutations (List.filter (fun y -> not (Pid.equal x y)) xs)))
      xs

let apply_perm pi sched =
  Schedule.of_list
    (List.map
       (fun (pid, (ev : Crash.event)) ->
         let point =
           match ev.point with
           | Crash.During_data s -> Crash.During_data (Pid.Set.map pi s)
           | (Crash.Before_send | Crash.After_data _ | Crash.After_send) as pt
             -> pt
         in
         (pi pid, Crash.make ~round:ev.round point))
       (Schedule.bindings sched))

(* Every renaming of the movable pids, the identity included. *)
let renamings p =
  let movable = Pid.Set.elements p.movable in
  List.map
    (fun image ->
      let assoc = List.combine movable image in
      fun pid -> match List.assoc_opt pid assoc with Some q -> q | None -> pid)
    (permutations movable)

let canonical p sched =
  let base = normalize p sched in
  if Pid.Set.is_empty p.movable then base
  else
    List.fold_left
      (fun best pi ->
        let candidate = normalize p (apply_perm pi base) in
        if compare candidate best < 0 then candidate else best)
      base (renamings p)

(* --- representative-only enumeration -------------------------------------- *)

let distinct_points ~dests ~syncs =
  let keep pt = Crash.equal_point (point_class ~dests ~syncs pt) pt in
  let before = Seq.return Crash.Before_send in
  let during =
    (* Proper nonempty subsets of the planned destinations; the empty subset
       is Before_send's class and the full one is After_data 0 / After_send. *)
    Seq.filter_map
      (fun s ->
        let s = Pid.Set.of_list s in
        if Pid.Set.is_empty s || Pid.Set.equal s dests then None
        else Some (Crash.During_data s))
      (Combinatorics.subsets (Pid.Set.elements dests))
  in
  let after_data =
    Seq.filter keep
      (Seq.map (fun k -> Crash.After_data k) (Combinatorics.range 0 (syncs - 1)))
  in
  let after =
    if keep Crash.After_send then Seq.return Crash.After_send else Seq.empty
  in
  Seq.append before (Seq.append during (Seq.append after_data after))

let events p ~max_round ~victim =
  let last =
    match p.halts_by ~victim with
    | Some h -> min h max_round
    | None -> max_round
  in
  Seq.concat_map
    (fun round ->
      Seq.map
        (fun pt -> Crash.make ~round pt)
        (distinct_points ~dests:(p.data_dests ~victim ~round)
           ~syncs:(p.sync_count ~victim ~round)))
    (Combinatorics.range 1 last)

let schedules p ~n ~max_f ~max_round =
  let pids = Pid.all ~n in
  let base =
    Seq.concat_map
      (fun f ->
        Seq.concat_map
          (fun victims ->
            Seq.map Schedule.of_list
              (Combinatorics.sequence
                 (List.map
                    (fun v ->
                      Seq.map (fun ev -> (v, ev)) (events p ~max_round ~victim:v))
                    victims)))
          (Combinatorics.choose f pids))
      (Combinatorics.upto max_f)
  in
  if Pid.Set.is_empty p.movable then base
  else begin
    (* [base] holds normalized schedules only, so [s] is its orbit's
       minimum iff no renaming maps it below itself: reject it at the first
       smaller image instead of computing the full minimum. *)
    let renamings = renamings p in
    Seq.filter
      (fun s ->
        List.for_all
          (fun pi -> compare (normalize p (apply_perm pi s)) s >= 0)
          renamings)
      base
  end

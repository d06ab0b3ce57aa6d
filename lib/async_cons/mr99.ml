open Model
open Timed_sim

type msg =
  | Est of { round : int; value : int }
  | Aux of { round : int; value : int option }
  | Decide of int

type phase = Wait_est | Wait_aux

type state = {
  me : int;
  n : int;
  t : int;
  est : int;
  round : int;
  phase : phase;
  suspects : Pid.Set.t;
  est_pool : (int, int) Hashtbl.t;  (* round -> coordinator's value *)
  aux_pool : (int, (int, int option) Hashtbl.t) Hashtbl.t;
      (* round -> sender -> aux *)
}

let name = "mr99"

let pp_msg ppf = function
  | Est { round; value } -> Format.fprintf ppf "est(r%d,%d)" round value
  | Aux { round; value } ->
    Format.fprintf ppf "aux(r%d,%s)" round
      (match value with Some v -> string_of_int v | None -> "_")
  | Decide v -> Format.fprintf ppf "decide(%d)" v

let coordinator state round = ((round - 1) mod state.n) + 1

let others state =
  List.filter (fun p -> Pid.to_int p <> state.me) (Pid.all ~n:state.n)

let broadcast state msg = List.map (fun p -> Process_intf.Send (p, msg)) (others state)

let aux_table state round =
  match Hashtbl.find_opt state.aux_pool round with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace state.aux_pool round tbl;
    tbl

(* Enter phase 2 of the current round with local knowledge [aux]. *)
let enter_aux state aux =
  let tbl = aux_table state state.round in
  Hashtbl.replace tbl state.me aux;
  ( { state with phase = Wait_aux },
    broadcast state (Aux { round = state.round; value = aux }) )

(* Run every transition currently enabled; asynchronous algorithms make
   progress on whichever event completed a wait condition. *)
let rec progress state =
  match state.phase with
  | Wait_est ->
    let c = coordinator state state.round in
    if c = state.me then
      (* The coordinator's own estimate is its aux; its EST broadcast
         happened when the round started. *)
      continue (enter_aux state (Some state.est))
    else begin
      match Hashtbl.find_opt state.est_pool state.round with
      | Some v -> continue (enter_aux state (Some v))
      | None ->
        if Pid.Set.mem (Pid.of_int c) state.suspects then
          continue (enter_aux state None)
        else (state, [])
    end
  | Wait_aux ->
    let tbl = aux_table state state.round in
    if Hashtbl.length tbl < state.n - state.t then (state, [])
    else begin
      let auxes = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
      let values = List.filter_map Fun.id auxes in
      match values with
      | v :: _ when List.length values = List.length auxes ->
        (* n - t copies of v and no ⊥: v is locked everywhere; decide. *)
        (state, broadcast state (Decide v) @ [ Process_intf.Decide v ])
      | v :: _ -> next_round { state with est = v }
      | [] -> next_round state
    end

and continue (state, actions) =
  let state, more = progress state in
  (state, actions @ more)

and next_round state =
  let state = { state with round = state.round + 1; phase = Wait_est } in
  let c = coordinator state state.round in
  let announce =
    if c = state.me then
      broadcast state (Est { round = state.round; value = state.est })
    else []
  in
  continue (state, announce)

let init (ctx : Process_intf.ctx) ~me ~proposal =
  if 2 * ctx.t >= ctx.n then
    invalid_arg "Mr99: requires t < n/2 (quorum intersection)";
  let state =
    {
      me = Pid.to_int me;
      n = ctx.n;
      t = ctx.t;
      est = proposal;
      round = 1;
      phase = Wait_est;
      suspects = Pid.Set.empty;
      est_pool = Hashtbl.create 16;
      aux_pool = Hashtbl.create 16;
    }
  in
  let announce =
    if coordinator state 1 = state.me then
      broadcast state (Est { round = 1; value = state.est })
    else []
  in
  continue (state, announce)

let on_message state ~now:_ ~from msg =
  match msg with
  | Est { round; value } ->
    (* First write wins: the coordinator sends one EST per round, but a
       Byzantine-free crash model still allows duplicates through relays in
       principle — keep the first. *)
    if not (Hashtbl.mem state.est_pool round) then
      Hashtbl.replace state.est_pool round value;
    progress state
  | Aux { round; value } ->
    let tbl = aux_table state round in
    if not (Hashtbl.mem tbl (Pid.to_int from)) then
      Hashtbl.replace tbl (Pid.to_int from) value;
    progress state
  | Decide v ->
    (* Reliable-broadcast relay before halting, so a deciding process that
       crashes mid-broadcast cannot leave the others blocked. *)
    (state, broadcast state (Decide v) @ [ Process_intf.Decide v ])

let on_timer state ~now:_ ~tag:_ = (state, [])

let on_suspicion state ~now:_ ~suspects = progress { state with suspects }


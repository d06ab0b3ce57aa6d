open Model

type msg = Bitset.t
type state = { me : int; n : int; t : int; values : Bitset.t }

let name = "flood-set"
let model = Model_kind.Classic
let decision_mode = `Halt
let msg_bits ~value_bits vs = value_bits * Bitset.cardinal vs
let pp_msg = Bitset.pp

let init ~n ~t ~me ~proposal =
  let values = Bitset.create ~capacity:n in
  Bitset.add values proposal;
  { me = Pid.to_int me; n; t; values }

(* The known-value set is one flat word bitmap mutated in place; the payload
   must be a snapshot, not an alias — the receive phase of round [r]
   interleaves with other processes reading what this process sent, and the
   engine delivers physically shared copies. *)
let data_sends state ~round:_ =
  let payload = Bitset.copy state.values in
  List.filter_map
    (fun dest ->
      if Pid.to_int dest = state.me then None else Some (dest, payload))
    (Pid.all ~n:state.n)

let sync_sends _state ~round:_ = []

let decide_now state round = round >= state.t + 1

(* The reference step drives this list half over immutable configurations,
   so it merges into a copy; only the flat [receive] mutates in place. *)
let compute state ~round ~data ~syncs =
  assert (syncs = []);
  let state = { state with values = Bitset.copy state.values } in
  List.iter (fun (_, vs) -> Bitset.union_into ~src:vs ~dst:state.values) data;
  if decide_now state round then
    (state, Some (Option.get (Bitset.min_elt_opt state.values)))
  else (state, None)

(* --- Zero-copy flat-engine path ------------------------------------------- *)

(* Every process floods every round, and [receive] decides at round t+1
   regardless of what arrived: never quiescent. *)
let quiescence = Sync_sim.Algorithm_intf.Chatty

let send state ~round:_ e =
  let payload = Bitset.copy state.values in
  for d = 1 to state.n do
    if d <> state.me then Sync_sim.Emitter.data e (Pid.of_int d) payload
  done

let receive state ~round view =
  for k = 0 to Sync_sim.Round_view.data_count view - 1 do
    Bitset.union_into
      ~src:(Sync_sim.Round_view.data_payload view k)
      ~dst:state.values
  done;
  if decide_now state round then
    Sync_sim.Round_view.decide view
      (Option.get (Bitset.min_elt_opt state.values));
  state

let known state = Bitset.elements state.values

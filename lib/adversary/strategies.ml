open Model

type killer_style = Silent | Greedy | Teasing of int

let coordinator_killer ~n ~f ~style =
  if f < 0 || f >= n then invalid_arg "coordinator_killer: need 0 <= f < n";
  let point i =
    match style with
    | Silent -> Crash.Before_send
    | Greedy ->
      (* Data fully delivered; commits go from p_n down to p_{f+2} only —
         one short of the paper's narration, which would let p_{f+1} decide
         in round 1 and skip its own coordination round.  Stopping at
         p_{f+2} keeps p_{f+1} active, realizing the true message maximum
         (f+1)(n-1-f/2) data + (f+1)(n-f-1) commits. *)
      Crash.After_data (n - f - 1)
    | Teasing k ->
      Crash.During_data (Pid.set_of_ints (List.filteri (fun idx _ -> idx < k)
        (List.rev_map Pid.to_int (Pid.range ~lo:(i + 1) ~hi:n))))
  in
  Schedule.of_list
    (List.map
       (fun i -> (Pid.of_int i, Crash.make ~round:i (point i)))
       (List.init f (fun k -> k + 1)))

let random_point rng ~model ~n =
  let subset () =
    Pid.set_of_ints
      (List.filter (fun _ -> Prng.Rng.bool rng) (List.init n (fun i -> i + 1)))
  in
  match model with
  | Model_kind.Classic -> begin
    match Prng.Rng.int rng 3 with
    | 0 -> Crash.Before_send
    | 1 -> Crash.During_data (subset ())
    | _ -> Crash.After_send
  end
  | Model_kind.Extended -> begin
    match Prng.Rng.int rng 4 with
    | 0 -> Crash.Before_send
    | 1 -> Crash.During_data (subset ())
    | 2 -> Crash.After_data (Prng.Rng.int rng n)
    | _ -> Crash.After_send
  end

let random ~rng ~model ~n ~f ~max_round =
  if f < 0 || f > n then invalid_arg "Strategies.random: need 0 <= f <= n";
  let victims =
    Prng.Rng.sample_without_replacement rng f (List.init n (fun i -> i + 1))
  in
  Schedule.of_list
    (List.map
       (fun v ->
         let round = Prng.Rng.int_in rng 1 max_round in
         (Pid.of_int v, Crash.make ~round (random_point rng ~model ~n)))
       victims)

let random_f ~rng ~model ~n ~t ~max_round =
  random ~rng ~model ~n ~f:(Prng.Rng.int_in rng 0 t) ~max_round

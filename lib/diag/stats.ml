type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0,1]";
  if n = 1 then sorted.(0)
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let mean = function
  | [] -> invalid_arg "Stats.mean: empty sample"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let m = mean xs in
    let var =
      if n < 2 then 0.0
      else
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
        /. float_of_int (n - 1)
    in
    {
      count = n;
      mean = m;
      stddev = sqrt var;
      min = a.(0);
      max = a.(n - 1);
      p50 = percentile a 0.5;
      p90 = percentile a 0.9;
      p99 = percentile a 0.99;
    }

let summarize_ints xs = summarize (List.map float_of_int xs)

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> [||]
  | _ ->
    let lo = List.fold_left Float.min infinity xs in
    let hi = List.fold_left Float.max neg_infinity xs in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    let bucket x =
      let b = int_of_float ((x -. lo) /. width) in
      if b >= bins then bins - 1 else if b < 0 then 0 else b
    in
    List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
    Array.mapi
      (fun i c ->
        let blo = lo +. (float_of_int i *. width) in
        (blo, blo +. width, c))
      counts


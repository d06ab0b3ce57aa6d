(* [--compare BASE NEW]: each file holds one run document per line, as
   [--out] appends them.  For every (workload, metric) present on both
   sides it prints the median and quartiles of each side and a verdict. *)

type verdict = Better | Same | Worse | Unresolved | Info

let verdict_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"
  | Info -> "-"

type side = {
  values : (string * string, float list) Hashtbl.t;  (** (workload, metric) *)
  tallies : (string, int * int) Hashtbl.t;  (** workload -> attempted, failed *)
}

let of_docs docs =
  let s = { values = Hashtbl.create 64; tallies = Hashtbl.create 8 } in
  List.iter
    (fun d ->
      let int key =
        match Obs.Json.member key d with Some (Obs.Json.Int i) -> i | _ -> 0
      in
      match
        (Obs.Json.member "workload" d, Obs.Json.member "metrics" d)
      with
      | Some (Obs.Json.String w), Some (Obs.Json.Obj metrics) ->
        let a, f = Option.value (Hashtbl.find_opt s.tallies w) ~default:(0, 0) in
        Hashtbl.replace s.tallies w (a + int "attempted", f + int "failed");
        List.iter
          (fun (name, m) ->
            match Option.bind (Obs.Json.member "value" m) Bench_file.number with
            | Some v ->
              let k = (w, name) in
              let old = Option.value (Hashtbl.find_opt s.values k) ~default:[] in
              Hashtbl.replace s.values k (v :: old)
            | None -> ())
          metrics
      | _ -> ())
    docs;
  s

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.fold_left
         (fun acc (lineno, l) ->
           match (acc, Obs.Json.of_string l) with
           | Error e, _ -> Error e
           | Ok docs, Ok d -> Ok (d :: docs)
           | Ok _, Error e -> Error (Printf.sprintf "%s:%d: %s" file lineno e))
         (Ok [])
    |> Result.map (fun docs -> of_docs (List.rev docs))

let rel_spread (q1, med, q3) =
  if med = 0.0 then if q3 = q1 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs med

(* Improvement of [n] over [b] as a share of [b]; positive is better. *)
let gain better b n =
  let d = if b = 0.0 then if n = b then 0.0 else infinity else (n -. b) /. Float.abs b in
  match better with Bench_file.Higher -> d | Bench_file.Lower -> -.d

let judge (m : Bench_file.metric) base fresh =
  let qb = Samples.quartiles base and qn = Samples.quartiles fresh in
  let _, mb, _ = qb and _, mn, _ = qn in
  let change = gain m.better mb mn in
  let beats x y =
    match m.better with Bench_file.Higher -> x > y | Bench_file.Lower -> x < y
  in
  let all_beat =
    List.for_all (fun x -> List.for_all (fun y -> beats x y) base) fresh
  in
  let v =
    match m.bound with
    | None -> Info
    | Some bound ->
      if all_beat then Better
      else if Float.max (rel_spread qb) (rel_spread qn) > bound then Unresolved
      else if change < -.bound then Worse
      else if change > rel_spread qb then Better
      else Same
  in
  (qb, qn, change, v)

let run (bench : Bench_file.t) ~base ~fresh =
  let regressions = ref 0 in
  let row w (m : Bench_file.metric) =
    match
      (Hashtbl.find_opt base.values (w, m.name), Hashtbl.find_opt fresh.values (w, m.name))
    with
    | Some b, Some n ->
      let (b1, bm, b3), (n1, nm, n3), change, v = judge m b n in
      if v = Worse then incr regressions;
      Printf.printf
        "%-22s %-34s %-6s base %12.4f [%12.4f %12.4f] n=%-2d  new %12.4f [%12.4f %12.4f] n=%-2d  %+7.1f%%  %s\n"
        w m.name m.unit_ bm b1 b3 (List.length b) nm n1 n3 (List.length n)
        (100.0 *. change) (verdict_string v)
    | _ -> ()
  in
  List.iter
    (fun w ->
      List.iter (row w) bench.Bench_file.end_to_end;
      List.iter (row w) bench.Bench_file.per_layer;
      match (Hashtbl.find_opt base.tallies w, Hashtbl.find_opt fresh.tallies w) with
      | Some (ba, bf), Some (na, nf) ->
        let frac a f = if a = 0 then 0.0 else float_of_int f /. float_of_int a in
        let worse = frac na nf > frac ba bf in
        if worse then incr regressions;
        Printf.printf "%-22s %-34s base %d/%d  new %d/%d  %s\n" w "failed_frac" bf ba
          nf na (if worse then "WORSE" else "same")
      | _ -> ())
    bench.Bench_file.workloads;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    1
  end
  else 0

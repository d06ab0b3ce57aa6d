(* Growable float samples and the order statistics the benchmark reports. *)

type t = { mutable a : float array; mutable len : int }

let create () = { a = Array.make 4096 0.0; len = 0 }

let push t x =
  if t.len = Array.length t.a then begin
    let b = Array.make (2 * t.len) 0.0 in
    Array.blit t.a 0 b 0 t.len;
    t.a <- b
  end;
  t.a.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let sorted t =
  let s = Array.sub t.a 0 t.len in
  Array.sort Float.compare s;
  s

(* Nearest-rank, as every serve report in the repository computes it. *)
let percentile = Serve.Report.percentile

let sort_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles xs ~n:4] with the default exclusive
   method, so a spread printed here is the one a reader recomputes. *)
let quartiles xs =
  let a = sort_list xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

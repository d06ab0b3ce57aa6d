(* Spans around the benchmark's calls into each layer's public functions.

   Per span name the recorder keeps the count, total time, self time (the
   span's duration minus what its child spans cover) and a log2 histogram
   of durations.  Raw spans are kept for a seeded 1-in-[every] sample, up
   to [cap], and written out when the run ends. *)

let every = 64  (* a power of two *)
let cap = 100_000

type acc = {
  mutable count : int;
  mutable total : int;  (* ns *)
  mutable self : int;  (* ns *)
  hist : int array;  (* hist.(k): durations with k significant bits *)
}

let max_depth = 32

type t = {
  names : string array;
  accs : acc array;
  mutable depth : int;
  ids : int array;  (* per depth: name index *)
  starts : int array;
  child : int array;  (* per depth: time covered by finished children *)
  span_ids : int array;
  mutable next_span : int;
  salt : int;
  raw : int array;  (* 6 ints per kept span *)
  mutable raw_len : int;
}

let now () = Int64.to_int (Monotonic_clock.now ())

let create ~seed names =
  {
    names;
    accs =
      Array.map
        (fun _ -> { count = 0; total = 0; self = 0; hist = Array.make 64 0 })
        names;
    depth = 0;
    ids = Array.make max_depth 0;
    starts = Array.make max_depth 0;
    child = Array.make max_depth 0;
    span_ids = Array.make max_depth 0;
    next_span = 0;
    salt = Inputs.mix seed;
    raw = Array.make (6 * cap) 0;
    raw_len = 0;
  }

let index t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Span.index: " ^ name)
    else if t.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let enter t id =
  let d = t.depth in
  t.ids.(d) <- id;
  t.child.(d) <- 0;
  t.span_ids.(d) <- t.next_span;
  t.next_span <- t.next_span + 1;
  t.depth <- d + 1;
  t.starts.(d) <- now ()

let bits x =
  let rec go x k = if x = 0 then k else go (x lsr 1) (k + 1) in
  go x 0

let leave ?(req = -1) t =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.starts.(d) in
  let a = t.accs.(t.ids.(d)) in
  a.count <- a.count + 1;
  a.total <- a.total + dur;
  a.self <- a.self + dur - t.child.(d);
  let b = min 63 (bits (max 0 dur)) in
  a.hist.(b) <- a.hist.(b) + 1;
  if d > 0 then t.child.(d - 1) <- t.child.(d - 1) + dur;
  let sid = t.span_ids.(d) in
  if Inputs.mix (sid + t.salt) land (every - 1) = 0 && t.raw_len < cap then begin
    let o = 6 * t.raw_len in
    t.raw.(o) <- t.ids.(d);
    t.raw.(o + 1) <- t.starts.(d);
    t.raw.(o + 2) <- stop;
    t.raw.(o + 3) <- sid;
    t.raw.(o + 4) <- (if d > 0 then t.span_ids.(d - 1) else -1);
    t.raw.(o + 5) <- req;
    t.raw_len <- t.raw_len + 1
  end

let self_ns t name = t.accs.(index t name).self
let attributed_ns t = Array.fold_left (fun s a -> s + a.self) 0 t.accs

(* The histogram's bucket holding quantile [q] of the durations, reported
   as that bucket's upper edge in ns. *)
let hist_quantile a q =
  let target = int_of_float (Float.ceil (q *. float_of_int a.count)) in
  let rec go k seen =
    if k >= 63 then 1 lsl 62
    else
      let seen = seen + a.hist.(k) in
      if seen >= target then 1 lsl k else go (k + 1) seen
  in
  if a.count = 0 then 0 else go 0 0

let write_raw ~file t =
  Proc.mkdir_p (Filename.dirname file);
  Out_channel.with_open_text file (fun oc ->
      output_string oc "name,start_ns,end_ns,span,parent,request\n";
      for i = 0 to t.raw_len - 1 do
        let o = 6 * i in
        Printf.fprintf oc "%s,%d,%d,%d,%d,%d\n" t.names.(t.raw.(o)) t.raw.(o + 1)
          t.raw.(o + 2) t.raw.(o + 3) t.raw.(o + 4) t.raw.(o + 5)
      done)

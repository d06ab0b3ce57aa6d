let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let page_bits = 9
let page_size = 1 lsl page_bits
let max_round = (1 lsl 30) - 1
let max_value = (1 lsl 32) - 1

(* Cell codes, one native 64-bit word per instance: 0 unfinished, 2 gave
   up, odd = decided with [value lsl 31 lor round lsl 1 lor 1].  [spilled]
   is never stored; lookups synthesize it for a dropped chunk. *)
let unfinished = 0
let gave_up_cell = 2
let spilled = 4

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type chunk = {
  mutable cells : Bytes.t;  (* [Bytes.empty] once spilled *)
  mutable decided : int;  (* [chunk_size] = complete: no gave-up cell left *)
}

(* The shared placeholder for a chunk never written; never mutated. *)
let absent = { cells = Bytes.empty; decided = 0 }

type t = {
  spills : bool;
  dir : chunk array array;  (* [[||]] for a page not allocated yet *)
  mutable count : int;
  mutable complete : chunk list;  (* fully decided, still resident *)
  mutable resident : int;
  mutable spilled_chunks : int;
}

let pages = (Live.Frame.max_instance lsr (chunk_bits + page_bits)) + 1

let create ~spill () =
  {
    spills = spill;
    dir = Array.make pages [||];
    count = 0;
    complete = [];
    resident = 0;
    spilled_chunks = 0;
  }

let in_range i = i >= 0 && i <= Live.Frame.max_instance
let offset i = (i land (chunk_size - 1)) lsl 3

let chunk_of t i =
  let page = t.dir.(i lsr (chunk_bits + page_bits)) in
  if Array.length page = 0 then absent
  else page.((i lsr chunk_bits) land (page_size - 1))

let cell t i =
  if not (in_range i) then unfinished
  else
    let c = chunk_of t i in
    if Bytes.length c.cells > 0 then Int64.to_int (get64 c.cells (offset i))
    else if c.decided = chunk_size then spilled
    else unfinished

type status = Unfinished | Gave_up | Decided of int * int | Spilled

let status t i =
  let v = cell t i in
  if v land 1 = 1 then Decided (v lsr 31, (v lsr 1) land max_round)
  else if v = gave_up_cell then Gave_up
  else if v = spilled then Spilled
  else Unfinished

let finished t i = cell t i <> unfinished

let is_decided t i =
  let v = cell t i in
  v land 1 = 1 || v = spilled

(* The chunk [i] lives in, allocating its directory page and the chunk
   itself on first write: at most one page and one chunk per call. *)
let writable t i =
  if not (in_range i) then invalid_arg "Decided: instance out of range";
  let p = i lsr (chunk_bits + page_bits) in
  if Array.length t.dir.(p) = 0 then t.dir.(p) <- Array.make page_size absent;
  let page = t.dir.(p) in
  let j = (i lsr chunk_bits) land (page_size - 1) in
  if page.(j) == absent then begin
    page.(j) <-
      { cells = Bytes.make (chunk_size lsl 3) '\000'; decided = 0 };
    t.resident <- t.resident + 1
  end;
  page.(j)

let decide t i ~value ~round =
  if value < 0 || value > max_value || round < 0 || round > max_round then
    invalid_arg "Decided.decide: value or round out of range";
  if is_decided t i then invalid_arg "Decided.decide: already decided";
  let c = writable t i in
  set64 c.cells (offset i)
    (Int64.of_int ((value lsl 31) lor (round lsl 1) lor 1));
  c.decided <- c.decided + 1;
  t.count <- t.count + 1;
  if c.decided = chunk_size && t.spills then t.complete <- c :: t.complete

let give_up t i =
  if cell t i = unfinished then begin
    let c = writable t i in
    set64 c.cells (offset i) (Int64.of_int gave_up_cell)
  end

let count t = t.count

let iter t f =
  Array.iteri
    (fun p page ->
      Array.iteri
        (fun j c ->
          if Bytes.length c.cells > 0 then
            let base = ((p lsl page_bits) lor j) lsl chunk_bits in
            for k = 0 to chunk_size - 1 do
              let v = Int64.to_int (get64 c.cells (k lsl 3)) in
              if v land 1 = 1 then
                f ~instance:(base + k) ~value:(v lsr 31)
                  ~round:((v lsr 1) land max_round)
            done)
        page)
    t.dir

let spill t =
  List.iter
    (fun c ->
      c.cells <- Bytes.empty;
      t.resident <- t.resident - 1;
      t.spilled_chunks <- t.spilled_chunks + 1)
    t.complete;
  t.complete <- []

let resident_chunks t = t.resident
let spilled_chunks t = t.spilled_chunks

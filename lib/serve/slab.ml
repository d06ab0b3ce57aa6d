(* Slot values live in [values] by position; [ids] names the instance each
   position holds (-1 when free) and [free] stacks the free positions.
   Instance ids map to positions through an open-addressing table —
   linear probing, Fibonacci hashing, backward-shift deletion — so binding,
   looking up and releasing an instance allocate nothing. *)

type 'a t = {
  make : unit -> 'a;
  initial : int;
  mutable values : 'a array;  (* [||] until the first slot is made *)
  mutable ids : int array;
  mutable free : int array;
  mutable nfree : int;
  mutable next : int;  (* high-water mark: slots ever allocated *)
  mutable keys : int array;  (* table: instance id, or [empty] *)
  mutable pos : int array;  (* table: that instance's position *)
  mutable bits : int;  (* the table holds [1 lsl bits] cells *)
  mutable active : int;
  mutable reused : int;
}

let empty = -1

let create ?(initial = 64) ~make () =
  let initial = max 1 initial in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * initial do
    incr bits
  done;
  {
    make;
    initial;
    values = [||];
    ids = [||];
    free = [||];
    nfree = 0;
    next = 0;
    keys = Array.make (1 lsl !bits) empty;
    pos = Array.make (1 lsl !bits) 0;
    bits = !bits;
    active = 0;
    reused = 0;
  }

let capacity t = t.next
let active t = t.active
let reused t = t.reused

let hash t id = (id * 0x278DDE6E5FD29F05) lsr (Sys.int_size - t.bits)

(* The table cell holding [instance], or the empty cell that ends its
   probe sequence. *)
let cell t instance =
  let mask = (1 lsl t.bits) - 1 in
  let i = ref (hash t instance) in
  while t.keys.(!i) <> empty && t.keys.(!i) <> instance do
    i := (!i + 1) land mask
  done;
  !i

let insert t instance p =
  let i = cell t instance in
  t.keys.(i) <- instance;
  t.pos.(i) <- p

(* Double the table once it is half full; the only allocation after
   warm-up is this, and it happens once per doubling of the window. *)
let grow_table t =
  let keys = t.keys and pos = t.pos in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) empty;
  t.pos <- Array.make (1 lsl t.bits) 0;
  Array.iteri (fun i k -> if k <> empty then insert t k pos.(i)) keys

let find t ~instance ~default =
  let i = cell t instance in
  if t.keys.(i) = empty then default else t.values.(t.pos.(i))

let new_position t v =
  let p = t.next in
  if p = Array.length t.values then begin
    (* Called only with the free stack empty: it need not be copied. *)
    let cap = max t.initial (2 * p) in
    let values = Array.make cap v in
    Array.blit t.values 0 values 0 p;
    t.values <- values;
    let ids = Array.make cap empty in
    Array.blit t.ids 0 ids 0 p;
    t.ids <- ids;
    t.free <- Array.make cap 0
  end
  else t.values.(p) <- v;
  t.next <- p + 1;
  p

let acquire t ~instance =
  if instance < 0 then invalid_arg "Slab.acquire: negative instance";
  let i = cell t instance in
  if t.keys.(i) <> empty then invalid_arg "Slab.acquire: instance already active";
  let p =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.reused <- t.reused + 1;
      t.free.(t.nfree)
    end
    else new_position t (t.make ())
  in
  t.ids.(p) <- instance;
  t.active <- t.active + 1;
  if 2 * t.active > 1 lsl t.bits then begin
    grow_table t;
    insert t instance p
  end
  else begin
    t.keys.(i) <- instance;
    t.pos.(i) <- p
  end;
  t.values.(p)

(* Backward-shift deletion: walk the probe run after the hole and move
   back every entry whose home cell does not lie between the hole and
   itself, so no tombstone is ever left. *)
let release t ~instance =
  let i = cell t instance in
  if t.keys.(i) <> empty then begin
    let p = t.pos.(i) in
    t.ids.(p) <- empty;
    t.free.(t.nfree) <- p;
    t.nfree <- t.nfree + 1;
    t.active <- t.active - 1;
    let mask = (1 lsl t.bits) - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.keys.(!j) <> empty do
      let home = hash t t.keys.(!j) in
      let stays =
        if !hole <= !j then !hole < home && home <= !j
        else !hole < home || home <= !j
      in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.pos.(!hole) <- t.pos.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!hole) <- empty
  end

let iter t f =
  for p = 0 to t.next - 1 do
    let id = t.ids.(p) in
    if id <> empty then f id t.values.(p)
  done

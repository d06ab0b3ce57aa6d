type 'a entry = { time : float; rank : int; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;  (* data.(0) unused sentinel slot *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let less a b =
  a.time < b.time
  || (a.time = b.time && (a.rank < b.rank || (a.rank = b.rank && a.seq < b.seq)))

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 1 then begin
    let parent = i / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = 2 * i and r = (2 * i) + 1 in
  let smallest = ref i in
  if l <= h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r <= h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h entry =
  let cap = Array.length h.data in
  if h.size + 1 >= cap then begin
    let ncap = max 16 (2 * cap) in
    let data = Array.make ncap entry in
    Array.blit h.data 0 data 0 (min cap (h.size + 1));
    h.data <- data
  end

let add h ~time ~rank payload =
  let entry = { time; rank; seq = h.next_seq; payload } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  h.size <- h.size + 1;
  h.data.(h.size) <- entry;
  sift_up h h.size

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(1) in
    h.data.(1) <- h.data.(h.size);
    h.size <- h.size - 1;
    if h.size > 0 then sift_down h 1;
    Some (top.time, top.payload)
  end

let size h = h.size

let is_empty h = h.size = 0

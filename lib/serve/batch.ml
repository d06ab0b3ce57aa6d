type bbuf = { mutable bytes : Bytes.t; mutable len : int }

type t = {
  bufs : bbuf array;  (* index = dest: 0 client channel, 1..n peers *)
  counts : int array;  (* frames currently coalesced per dest *)
  batch : bool;
  stats : Stats.t;
  send : dest:int -> Bytes.t -> len:int -> [ `Taken | `Done ];
  mutable pool : Bytes.t list;  (* buffers returned by put_back *)
  mutable pooled : int;
  mutable last : Live.Frame.t;  (* the frame [add_frame] wrote last ... *)
  mutable last_dest : int;  (* ... into [bufs.(last_dest)] ... *)
  mutable last_pos : int;  (* ... at [last_pos] ... *)
  mutable last_len : int;  (* ... [last_len] bytes; -1: nothing to reuse *)
}

let initial_cap = 4096
let max_pooled = 64

let create ~n ~batch ~stats ~send =
  {
    bufs =
      Array.init (n + 1) (fun _ -> { bytes = Bytes.create initial_cap; len = 0 });
    counts = Array.make (n + 1) 0;
    batch;
    stats;
    send;
    pool = [];
    pooled = 0;
    last = Live.Frame.Hello { node = 0 };
    last_dest = 0;
    last_pos = 0;
    last_len = -1;
  }

let put_back t bytes =
  if t.pooled < max_pooled then begin
    t.pool <- bytes :: t.pool;
    t.pooled <- t.pooled + 1
  end

let take_buf t ~min =
  match t.pool with
  | b :: rest when Bytes.length b >= min ->
    t.pool <- rest;
    t.pooled <- t.pooled - 1;
    b
  | _ -> Bytes.create (max min initial_cap)

let ensure b extra =
  let need = b.len + extra in
  if Bytes.length b.bytes < need then begin
    let cap = ref (max initial_cap (2 * Bytes.length b.bytes)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit b.bytes 0 nb 0 b.len;
    b.bytes <- nb
  end

let count t len =
  t.stats.Stats.frames_out <- t.stats.Stats.frames_out + 1;
  t.stats.Stats.bytes_out <- t.stats.Stats.bytes_out + len

(* One frame, sent on its own: [batch:false]'s path for both adds. *)
let send_one t ~dest bytes ~len =
  t.stats.Stats.max_batch <- max t.stats.Stats.max_batch 1;
  match t.send ~dest bytes ~len with
  | `Taken -> ()
  | `Done -> put_back t bytes

let add t ~dest wire =
  count t (String.length wire);
  if t.batch then begin
    let b = t.bufs.(dest) in
    let len = String.length wire in
    ensure b len;
    Bytes.blit_string wire 0 b.bytes b.len len;
    b.len <- b.len + len;
    t.counts.(dest) <- t.counts.(dest) + 1
  end
  else begin
    (* One owned buffer per frame: the callee may keep it ([`Taken]), so
       the string's bytes are copied rather than unsafely aliased. *)
    let len = String.length wire in
    let bytes = take_buf t ~min:len in
    Bytes.blit_string wire 0 bytes 0 len;
    send_one t ~dest bytes ~len
  end

let add_frame t ~dest frame =
  if t.batch then begin
    let b = t.bufs.(dest) in
    let len =
      if t.last_len >= 0 && frame == t.last then begin
        (* Encoded since the last flush: copy those bytes.  [ensure] may
           move [b] — read the source buffer after it. *)
        let len = t.last_len in
        ensure b len;
        Bytes.blit t.bufs.(t.last_dest).bytes t.last_pos b.bytes b.len len;
        len
      end
      else begin
        let len = Live.Frame.size frame in
        ensure b len;
        ignore (Live.Frame.write b.bytes b.len frame : int);
        len
      end
    in
    count t len;
    t.last <- frame;
    t.last_dest <- dest;
    t.last_pos <- b.len;
    t.last_len <- len;
    b.len <- b.len + len;
    t.counts.(dest) <- t.counts.(dest) + 1
  end
  else begin
    let len = Live.Frame.size frame in
    count t len;
    let bytes = take_buf t ~min:len in
    ignore (Live.Frame.write bytes 0 frame : int);
    send_one t ~dest bytes ~len
  end

let flush t =
  if t.batch then begin
    t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
    (* The buffers are handed over below: no frame bytes remain to copy. *)
    t.last_len <- -1;
    (* A loop, not [Array.iteri]: no closure per flush. *)
    for dest = 0 to Array.length t.bufs - 1 do
      let b = t.bufs.(dest) in
      if b.len > 0 then begin
        t.stats.Stats.max_batch <- max t.stats.Stats.max_batch t.counts.(dest);
        t.counts.(dest) <- 0;
        let len = b.len in
        b.len <- 0;
        (* No [Buffer.contents]: the callee gets the buffer itself. *)
        t.stats.Stats.copies_saved <- t.stats.Stats.copies_saved + 1;
        match t.send ~dest b.bytes ~len with
        | `Taken -> b.bytes <- take_buf t ~min:initial_cap
        | `Done -> ()
      end
    done
  end

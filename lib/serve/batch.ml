type bbuf = { mutable bytes : Bytes.t; mutable len : int }

type t = {
  bufs : bbuf array;  (* index = dest: 0 client channel, 1..n peers *)
  counts : int array;  (* frames currently coalesced per dest *)
  batch : bool;
  stats : Stats.t;
  send : dest:int -> Bytes.t -> len:int -> [ `Taken | `Done ];
  mutable pool : Bytes.t list;  (* buffers returned by put_back *)
  mutable pooled : int;
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

let add t ~dest wire =
  t.stats.Stats.frames_out <- t.stats.Stats.frames_out + 1;
  t.stats.Stats.bytes_out <- t.stats.Stats.bytes_out + String.length wire;
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
    t.stats.Stats.max_batch <- max t.stats.Stats.max_batch 1;
    let len = String.length wire in
    let bytes = take_buf t ~min:len in
    Bytes.blit_string wire 0 bytes 0 len;
    match t.send ~dest bytes ~len with
    | `Taken -> ()
    | `Done -> put_back t bytes
  end

let flush t =
  if t.batch then begin
    t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
    Array.iteri
      (fun dest b ->
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
        end)
      t.bufs
  end

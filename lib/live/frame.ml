type t =
  | Hello of { node : int }
  | Data of { instance : int; round : int; payload : string }
  | Ctl of { instance : int; round : int }
  | Submit of { instance : int; proposal : int }
  | Decide of { instance : int; value : int; round : int }
  | Catchup of { instance : int; value : int; round : int }

let magic0 = '\xFA'
let magic1 = '\xD0'
let max_body = 65536
let max_instance = (1 lsl 30) - 1

let equal a b =
  match (a, b) with
  | Hello { node = a }, Hello { node = b } -> Int.equal a b
  | ( Data { instance = i1; round = r1; payload = p1 },
      Data { instance = i2; round = r2; payload = p2 } ) ->
    Int.equal i1 i2 && Int.equal r1 r2 && String.equal p1 p2
  | Ctl { instance = i1; round = r1 }, Ctl { instance = i2; round = r2 } ->
    Int.equal i1 i2 && Int.equal r1 r2
  | ( Submit { instance = i1; proposal = p1 },
      Submit { instance = i2; proposal = p2 } ) ->
    Int.equal i1 i2 && Int.equal p1 p2
  | ( Decide { instance = i1; value = v1; round = r1 },
      Decide { instance = i2; value = v2; round = r2 } ) ->
    Int.equal i1 i2 && Int.equal v1 v2 && Int.equal r1 r2
  | ( Catchup { instance = i1; value = v1; round = r1 },
      Catchup { instance = i2; value = v2; round = r2 } ) ->
    Int.equal i1 i2 && Int.equal v1 v2 && Int.equal r1 r2
  | (Hello _ | Data _ | Ctl _ | Submit _ | Decide _ | Catchup _), _ -> false

let pp ppf = function
  | Hello { node } -> Format.fprintf ppf "hello(p%d)" node
  | Data { instance; round; payload } ->
    Format.fprintf ppf "data(i%d,r%d,%d bytes)" instance round
      (String.length payload)
  | Ctl { instance; round } -> Format.fprintf ppf "ctl(i%d,r%d)" instance round
  | Submit { instance; proposal } ->
    Format.fprintf ppf "submit(i%d,v%d)" instance proposal
  | Decide { instance; value; round } ->
    Format.fprintf ppf "decide(i%d,v%d,r%d)" instance value round
  | Catchup { instance; value; round } ->
    Format.fprintf ppf "catchup(i%d,v%d,r%d)" instance value round

let add_be32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

(* Instance ids ride as LEB128 varints: 7 value bits per byte, low group
   first, high bit set on every byte but the last.  The common case — low
   ids in a fresh storm — costs one byte, and the cap at [max_instance]
   bounds decoding to five bytes. *)
let add_varint buf v =
  if v < 0 || v > max_instance then
    invalid_arg "Frame: instance id out of range";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let body_of = function
  | Hello { node } ->
    let b = Buffer.create 5 in
    Buffer.add_char b '\x01';
    add_be32 b node;
    Buffer.contents b
  | Data { instance; round; payload } ->
    let b = Buffer.create (10 + String.length payload) in
    Buffer.add_char b '\x02';
    add_varint b instance;
    add_be32 b round;
    Buffer.add_string b payload;
    Buffer.contents b
  | Ctl { instance; round } ->
    let b = Buffer.create 10 in
    Buffer.add_char b '\x03';
    add_varint b instance;
    add_be32 b round;
    Buffer.contents b
  | Submit { instance; proposal } ->
    let b = Buffer.create 10 in
    Buffer.add_char b '\x04';
    add_varint b instance;
    add_be32 b proposal;
    Buffer.contents b
  | Decide { instance; value; round } ->
    let b = Buffer.create 14 in
    Buffer.add_char b '\x05';
    add_varint b instance;
    add_be32 b round;
    add_be32 b value;
    Buffer.contents b
  | Catchup { instance; value; round } ->
    let b = Buffer.create 14 in
    Buffer.add_char b '\x06';
    add_varint b instance;
    add_be32 b round;
    add_be32 b value;
    Buffer.contents b

let add_framed out body =
  let len = String.length body in
  if len > max_body then invalid_arg "Frame.encode: body too large";
  Buffer.add_char out magic0;
  Buffer.add_char out magic1;
  add_be32 out len;
  Buffer.add_string out body;
  add_be32 out (Int32.to_int (Crc32.string body) land 0xFFFFFFFF)

let encode frame =
  let body = body_of frame in
  let out = Buffer.create (10 + String.length body) in
  add_framed out body;
  Buffer.contents out

let encode_into out frame = add_framed out (body_of frame)

(* --- Incremental decoding ------------------------------------------------- *)

type kind = K_hello | K_data | K_ctl | K_submit | K_decide | K_catchup

type view = {
  mutable kind : kind;
  mutable node : int;
  mutable instance : int;
  mutable round : int;
  mutable value : int;  (* Submit proposal / Decide value *)
  mutable payload_buf : Bytes.t;  (* Data only: window into the decoder *)
  mutable payload_pos : int;
  mutable payload_len : int;
}

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* one past the last valid byte *)
  mutable corrupt : string option;  (* sticky *)
  view : view;  (* reused across pops: no per-frame allocation *)
}

let decoder () =
  {
    buf = Bytes.create 1024;
    start = 0;
    stop = 0;
    corrupt = None;
    view =
      {
        kind = K_hello;
        node = 0;
        instance = 0;
        round = 0;
        value = 0;
        payload_buf = Bytes.empty;
        payload_pos = 0;
        payload_len = 0;
      };
  }

let buffered d = d.stop - d.start

let feed d s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Frame.feed: out of bounds";
  let avail = Bytes.length d.buf - d.stop in
  if avail < len then begin
    let live = buffered d in
    let need = live + len in
    if need <= Bytes.length d.buf then begin
      (* Compact in place: sliding the live tail left is cheaper than a
         fresh allocation and keeps the buffer — and any views into it —
         at a stable capacity on the warm path. *)
      Bytes.blit d.buf d.start d.buf 0 live;
      d.start <- 0;
      d.stop <- live
    end
    else begin
      let cap = max (2 * Bytes.length d.buf) need in
      let fresh = Bytes.create cap in
      Bytes.blit d.buf d.start fresh 0 live;
      d.buf <- fresh;
      d.start <- 0;
      d.stop <- live
    end
  end;
  Bytes.blit_string s pos d.buf d.stop len;
  d.stop <- d.stop + len

let feed_string d s = feed d s ~pos:0 ~len:(String.length s)

let be32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let fail d msg =
  d.corrupt <- Some msg;
  `Corrupt msg

(* Returns [Some (value, next_off)], or [None] on truncation, a group
   beyond five bytes, or a decoded value over [max_instance]. *)
let read_varint b ~off ~stop =
  let rec go acc shift off =
    if off >= stop || shift > 28 then None
    else
      let c = Char.code (Bytes.get b off) in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then
        if acc > max_instance then None else Some (acc, off + 1)
      else go acc (shift + 7) (off + 1)
  in
  go 0 0 off

(* Parse one CRC-validated body in place: [off..stop) inside [d.buf].
   Fills the decoder's reused [view]; Data payloads stay a window into the
   receive buffer. *)
let parse_body d ~off ~stop =
  if stop - off < 1 then fail d "body shorter than its fixed fields"
  else begin
    let v = d.view in
    let kind = Bytes.get d.buf off in
    let off = off + 1 in
    match kind with
    | '\x01' ->
      if stop - off <> 4 then fail d "hello body has trailing bytes"
      else begin
        v.kind <- K_hello;
        v.node <- be32 d.buf off;
        `View v
      end
    | '\x02' .. '\x06' -> (
      match read_varint d.buf ~off ~stop with
      | None -> fail d "bad varint instance id"
      | Some (instance, off) -> (
        v.instance <- instance;
        let rest = stop - off in
        match kind with
        | '\x02' ->
          if rest < 4 then fail d "body shorter than its fixed fields"
          else begin
            v.kind <- K_data;
            v.round <- be32 d.buf off;
            v.payload_buf <- d.buf;
            v.payload_pos <- off + 4;
            v.payload_len <- rest - 4;
            `View v
          end
        | '\x03' ->
          if rest <> 4 then fail d "ctl body has trailing bytes"
          else begin
            v.kind <- K_ctl;
            v.round <- be32 d.buf off;
            `View v
          end
        | '\x04' ->
          if rest <> 4 then fail d "submit body has trailing bytes"
          else begin
            v.kind <- K_submit;
            v.value <- be32 d.buf off;
            `View v
          end
        | _ ->
          let decide = kind = '\x05' in
          if rest <> 8 then
            fail d
              (if decide then "decide body has trailing bytes"
               else "catchup body has trailing bytes")
          else begin
            v.kind <- (if decide then K_decide else K_catchup);
            v.round <- be32 d.buf off;
            v.value <- be32 d.buf (off + 4);
            `View v
          end))
    | c -> fail d (Printf.sprintf "unknown frame kind 0x%02x" (Char.code c))
  end

let pop_view d =
  match d.corrupt with
  | Some msg -> `Corrupt msg
  | None ->
    let live = buffered d in
    if live < 6 then `Need_more
    else if
      Bytes.get d.buf d.start <> magic0
      || Bytes.get d.buf (d.start + 1) <> magic1
    then fail d "bad frame magic"
    else
      let len = be32 d.buf (d.start + 2) in
      if len > max_body then
        fail d (Printf.sprintf "frame length %d exceeds limit %d" len max_body)
      else if live < 6 + len + 4 then `Need_more
      else begin
        let body = d.start + 6 in
        let declared = be32 d.buf (body + len) in
        let actual = Int32.to_int (Crc32.bytes d.buf ~pos:body ~len) land 0xFFFFFFFF in
        if declared <> actual then
          fail d (Printf.sprintf "CRC mismatch (wire %08x, computed %08x)" declared actual)
        else begin
          match parse_body d ~off:body ~stop:(body + len) with
          | `View v ->
            (* Consuming only moves indices, never bytes, so the view's
               payload window stays valid until the next [feed]. *)
            d.start <- body + len + 4;
            if d.start = d.stop then begin
              d.start <- 0;
              d.stop <- 0
            end;
            `View v
          | `Corrupt _ as c -> c
        end
      end

let view_payload v = Bytes.sub_string v.payload_buf v.payload_pos v.payload_len

let frame_of_view v =
  match v.kind with
  | K_hello -> Hello { node = v.node }
  | K_data ->
    Data { instance = v.instance; round = v.round; payload = view_payload v }
  | K_ctl -> Ctl { instance = v.instance; round = v.round }
  | K_submit -> Submit { instance = v.instance; proposal = v.value }
  | K_decide -> Decide { instance = v.instance; value = v.value; round = v.round }
  | K_catchup ->
    Catchup { instance = v.instance; value = v.value; round = v.round }

let pop d =
  match pop_view d with
  | `View v -> `Frame (frame_of_view v)
  | `Need_more -> `Need_more
  | `Corrupt msg -> `Corrupt msg

(* Every Hello encodes to the same size, so a handshake can read exactly
   one — no peer bytes beyond it ever land in the wrong decoder. *)
let hello_size = String.length (encode (Hello { node = 1 }))

let hello_of_string bytes =
  let d = decoder () in
  feed_string d bytes;
  match pop d with
  | `Frame (Hello { node }) -> Ok node
  | `Frame f -> Error (Format.asprintf "handshake: unexpected %a" pp f)
  | `Corrupt why -> Error ("handshake: " ^ why)
  | `Need_more -> Error "handshake: short hello"

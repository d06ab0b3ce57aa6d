let magic = "SAWL"
let version = 1
let header_len = 12

(* A commit that staged more than this leaves a buffer worth shrinking. *)
let staged_keep = 65536
let staged_initial = 4096

type t = {
  fd : Unix.file_descr;
  path : string;
  mutable staged : Bytes.t;  (* encoded Decides not yet written ... *)
  mutable staged_len : int;  (* ... in its first [staged_len] bytes *)
  mutable pending : int;  (* entries in [staged] *)
  mutable appended : int;
}

type entry = { instance : int; value : int; round : int }
type recovery = { entries : entry list; discarded : int }

let path ~dir ~node = Filename.concat dir (Printf.sprintf "wal-p%d.bin" node)

let be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let header ~node =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr ((version lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((version lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((version lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (version land 0xff));
  Buffer.add_char b (Char.chr ((node lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((node lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((node lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (node land 0xff));
  Buffer.to_bytes b

let check_header ~node s =
  if String.length s < header_len then Error "wal: file shorter than header"
  else if String.sub s 0 4 <> magic then Error "wal: bad magic"
  else if be32 s 4 <> version then
    Error (Printf.sprintf "wal: unknown version %d" (be32 s 4))
  else if be32 s 8 <> node then
    Error (Printf.sprintf "wal: log belongs to node %d, not %d" (be32 s 8) node)
  else Ok ()

let rec read_some fd buf off len =
  match Unix.read fd buf off len with
  | k -> k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd buf off len

(* Up to [header_len] bytes: fewer only when the file is that short. *)
let read_header fd =
  let b = Bytes.create header_len in
  let rec go off =
    if off = header_len then off
    else
      match read_some fd b off (header_len - off) with
      | 0 -> off
      | k -> go (off + k)
  in
  Bytes.sub_string b 0 (go 0)

(* Stream the CRC-valid Decide frames after the header through [f], one
   read-sized slice at a time, so no log is ever held in memory whole.
   The first byte the decoder cannot account for — a torn tail, a flipped
   bit, or a valid frame of a kind the writer never emits — ends the scan.
   Returns the length of the valid prefix, header included. *)
let scan fd f =
  let dec = Live.Frame.decoder () in
  let buf = Bytes.create 65536 in
  let fed = ref 0 in
  (* [unread] is measured before each pop: a wrong-kind frame is consumed
     by the pop but still belongs to the rejected suffix. *)
  let rec pop () =
    let unread = Live.Frame.buffered dec in
    match Live.Frame.pop_view dec with
    | `View v when v.Live.Frame.kind = Live.Frame.K_decide ->
      f ~instance:v.Live.Frame.instance ~value:v.Live.Frame.value
        ~round:v.Live.Frame.round;
      pop ()
    | `Need_more -> None
    | `View _ | `Corrupt _ -> Some unread
  in
  let rec read () =
    match read_some fd buf 0 (Bytes.length buf) with
    | 0 -> header_len + !fed - Live.Frame.buffered dec
    | k -> (
      fed := !fed + k;
      Live.Frame.feed dec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
      match pop () with
      | None -> read ()
      | Some unread -> header_len + !fed - unread)
  in
  read ()

(* Check the header of the file open on [fd], then scan it: the valid
   prefix's length and the rejected suffix's. *)
let read_log fd ~node f =
  let size = (Unix.fstat fd).Unix.st_size in
  match check_header ~node (read_header fd) with
  | Error _ as e -> e
  | Ok () ->
    let valid = scan fd f in
    Ok (valid, size - valid)

let collector () =
  let acc = ref [] in
  ( (fun ~instance ~value ~round -> acc := { instance; value; round } :: !acc),
    fun () -> List.rev !acc )

let stream ~path ~node f =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> Ok 0
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Result.map snd (read_log fd ~node f))

(* [seen.(i)] is instance [i]'s first logged value (a wire value, never
   negative), [-1] before any, [split] once counted. *)
let disagreements ~dir ~n =
  let split = -2 and seen = ref [||] and count = ref 0 in
  let note ~instance ~value ~round:_ =
    let len = Array.length !seen in
    if instance >= len then begin
      let grown = Array.make (max (instance + 1) (2 * len)) (-1) in
      Array.blit !seen 0 grown 0 len;
      seen := grown
    end;
    let v = !seen.(instance) in
    if v = -1 then !seen.(instance) <- value
    else if v <> split && v <> value then begin
      !seen.(instance) <- split;
      incr count
    end
  in
  let rec go node =
    if node > n then Ok !count
    else
      match stream ~path:(path ~dir ~node) ~node note with
      | Ok _ -> go (node + 1)
      | Error why -> Error (Printf.sprintf "p%d's log: %s" node why)
  in
  go 1

let load ~path ~node =
  let f, entries = collector () in
  Result.map
    (fun discarded -> { entries = entries (); discarded })
    (stream ~path ~node f)

let write_all fd b ~len =
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let handle fd path =
  {
    fd;
    path;
    staged = Bytes.create staged_initial;
    staged_len = 0;
    pending = 0;
    appended = 0;
  }

(* Open [path] for appending — creating it with a fresh header if
   missing — and scan the valid prefix through [f]; the rejected suffix
   is truncated in place (fsync'd) and the log left positioned at its
   end.  Returns the discarded byte count. *)
let open_log ~path ~node f =
  match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    write_all fd (header ~node) ~len:header_len;
    Unix.fsync fd;
    Ok (handle fd path, 0)
  | fd -> (
    match read_log fd ~node f with
    | Error _ as e ->
      Unix.close fd;
      e
    | Ok (keep, discarded) ->
      if discarded > 0 then begin
        Unix.ftruncate fd keep;
        Unix.fsync fd
      end;
      ignore (Unix.lseek fd keep Unix.SEEK_SET);
      Ok (handle fd path, discarded))

let recover ~path ~node =
  let f, entries = collector () in
  Result.map
    (fun (t, discarded) -> (t, { entries = entries (); discarded }))
    (open_log ~path ~node f)

let reopen ~path ~node =
  open_log ~path ~node (fun ~instance:_ ~value:_ ~round:_ -> ())

let add t ~instance ~value ~round =
  let frame = Live.Frame.Decide { instance; value; round } in
  let need = t.staged_len + Live.Frame.size frame in
  if need > Bytes.length t.staged then begin
    let grown = Bytes.create (max need (2 * Bytes.length t.staged)) in
    Bytes.blit t.staged 0 grown 0 t.staged_len;
    t.staged <- grown
  end;
  t.staged_len <- Live.Frame.write t.staged t.staged_len frame;
  t.pending <- t.pending + 1

let commit t =
  let k = t.pending in
  if k > 0 then begin
    write_all t.fd t.staged ~len:t.staged_len;
    Unix.fsync t.fd;
    if t.staged_len > staged_keep then t.staged <- Bytes.create staged_initial;
    t.staged_len <- 0;
    t.pending <- 0;
    t.appended <- t.appended + k
  end;
  k

let append t ~instance ~value ~round =
  add t ~instance ~value ~round;
  ignore (commit t)

(* The bytes [off, stop) of the log are still to be read; [cdec] holds a
   frame split across two slices.  No fd stays open between slices, so
   an abandoned cursor costs nothing. *)
type cursor = {
  cpath : string;
  mutable off : int;
  stop : int;
  cdec : Live.Frame.decoder;
}

let slice = 65536

let cursor t =
  {
    cpath = t.path;
    off = header_len;
    stop = Unix.lseek t.fd 0 Unix.SEEK_CUR;
    cdec = Live.Frame.decoder ();
  }

let next c f =
  if c.off < c.stop then begin
    let fd = Unix.openfile c.cpath [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd c.off Unix.SEEK_SET);
        let buf = Bytes.create (min slice (c.stop - c.off)) in
        match read_some fd buf 0 (Bytes.length buf) with
        | 0 -> c.off <- c.stop
        | k ->
          c.off <- c.off + k;
          Live.Frame.feed c.cdec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
          let rec pop () =
            match Live.Frame.pop_view c.cdec with
            | `View v when v.Live.Frame.kind = Live.Frame.K_decide ->
              f ~instance:v.Live.Frame.instance ~value:v.Live.Frame.value
                ~round:v.Live.Frame.round;
              pop ()
            | `Need_more -> ()
            | `View _ | `Corrupt _ -> c.off <- c.stop
          in
          pop ())
  end;
  c.off < c.stop

let iter t f =
  let c = cursor t in
  while next c f do
    ()
  done

let appended t = t.appended
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

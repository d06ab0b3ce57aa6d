let table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The one checksum loop.  Every value stays within 32 bits of a native
   int, so nothing is boxed; callers have checked the range. *)
let loop init s ~pos ~len =
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest: out of bounds";
  loop init s ~pos ~len

let string s = loop 0 s ~pos:0 ~len:(String.length s)

let bytes ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.bytes: out of bounds";
  (* The range is validated above and [loop] only reads it, so the
     no-copy cast is safe even if the caller mutates [b] afterwards. *)
  loop init (Bytes.unsafe_to_string b) ~pos ~len

type t = {
  mutable frames_out : int;
  mutable bytes_out : int;
  mutable write_calls : int;
  mutable partial_writes : int;
  mutable copies_saved : int;
  mutable overflow_kills : int;
  mutable flushes : int;
  mutable max_batch : int;
  mutable frames_in : int;
  mutable submits : int;
  mutable decides : int;
  mutable fast_rounds : int;
  mutable expired_rounds : int;
  mutable late_frames : int;
  mutable dropped_frames : int;
  mutable slab_capacity : int;
  mutable slab_reused : int;
  mutable wal_appends : int;
  mutable wal_replayed : int;
  mutable catchup_in : int;
  mutable catchup_out : int;
}

let create () =
  {
    frames_out = 0;
    bytes_out = 0;
    write_calls = 0;
    partial_writes = 0;
    copies_saved = 0;
    overflow_kills = 0;
    flushes = 0;
    max_batch = 0;
    frames_in = 0;
    submits = 0;
    decides = 0;
    fast_rounds = 0;
    expired_rounds = 0;
    late_frames = 0;
    dropped_frames = 0;
    slab_capacity = 0;
    slab_reused = 0;
    wal_appends = 0;
    wal_replayed = 0;
    catchup_in = 0;
    catchup_out = 0;
  }

let add a b =
  a.frames_out <- a.frames_out + b.frames_out;
  a.bytes_out <- a.bytes_out + b.bytes_out;
  a.write_calls <- a.write_calls + b.write_calls;
  a.partial_writes <- a.partial_writes + b.partial_writes;
  a.copies_saved <- a.copies_saved + b.copies_saved;
  a.overflow_kills <- a.overflow_kills + b.overflow_kills;
  a.flushes <- a.flushes + b.flushes;
  a.max_batch <- max a.max_batch b.max_batch;
  a.frames_in <- a.frames_in + b.frames_in;
  a.submits <- a.submits + b.submits;
  a.decides <- a.decides + b.decides;
  a.fast_rounds <- a.fast_rounds + b.fast_rounds;
  a.expired_rounds <- a.expired_rounds + b.expired_rounds;
  a.late_frames <- a.late_frames + b.late_frames;
  a.dropped_frames <- a.dropped_frames + b.dropped_frames;
  a.slab_capacity <- max a.slab_capacity b.slab_capacity;
  a.slab_reused <- a.slab_reused + b.slab_reused;
  a.wal_appends <- a.wal_appends + b.wal_appends;
  a.wal_replayed <- a.wal_replayed + b.wal_replayed;
  a.catchup_in <- a.catchup_in + b.catchup_in;
  a.catchup_out <- a.catchup_out + b.catchup_out

let to_json s =
  Obs.Json.Obj
    [
      ("frames_out", Obs.Json.Int s.frames_out);
      ("bytes_out", Obs.Json.Int s.bytes_out);
      ("write_calls", Obs.Json.Int s.write_calls);
      ("partial_writes", Obs.Json.Int s.partial_writes);
      ("copies_saved", Obs.Json.Int s.copies_saved);
      ("overflow_kills", Obs.Json.Int s.overflow_kills);
      ("flushes", Obs.Json.Int s.flushes);
      ("max_batch", Obs.Json.Int s.max_batch);
      ("frames_in", Obs.Json.Int s.frames_in);
      ("submits", Obs.Json.Int s.submits);
      ("decides", Obs.Json.Int s.decides);
      ("fast_rounds", Obs.Json.Int s.fast_rounds);
      ("expired_rounds", Obs.Json.Int s.expired_rounds);
      ("late_frames", Obs.Json.Int s.late_frames);
      ("dropped_frames", Obs.Json.Int s.dropped_frames);
      ("slab_capacity", Obs.Json.Int s.slab_capacity);
      ("slab_reused", Obs.Json.Int s.slab_reused);
      ("wal_appends", Obs.Json.Int s.wal_appends);
      ("wal_replayed", Obs.Json.Int s.wal_replayed);
      ("catchup_in", Obs.Json.Int s.catchup_in);
      ("catchup_out", Obs.Json.Int s.catchup_out);
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let int name =
    match json with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (Obs.Json.Int i) -> Ok i
      | Some _ -> Error (Printf.sprintf "stats.%s: not an int" name)
      | None -> Ok 0)
    | _ -> Error "stats: not an object"
  in
  let* frames_out = int "frames_out" in
  let* bytes_out = int "bytes_out" in
  let* write_calls = int "write_calls" in
  let* partial_writes = int "partial_writes" in
  let* copies_saved = int "copies_saved" in
  let* overflow_kills = int "overflow_kills" in
  let* flushes = int "flushes" in
  let* max_batch = int "max_batch" in
  let* frames_in = int "frames_in" in
  let* submits = int "submits" in
  let* decides = int "decides" in
  let* fast_rounds = int "fast_rounds" in
  let* expired_rounds = int "expired_rounds" in
  let* late_frames = int "late_frames" in
  let* dropped_frames = int "dropped_frames" in
  let* slab_capacity = int "slab_capacity" in
  let* slab_reused = int "slab_reused" in
  let* wal_appends = int "wal_appends" in
  let* wal_replayed = int "wal_replayed" in
  let* catchup_in = int "catchup_in" in
  let* catchup_out = int "catchup_out" in
  Ok
    {
      frames_out;
      bytes_out;
      write_calls;
      partial_writes;
      copies_saved;
      overflow_kills;
      flushes;
      max_batch;
      frames_in;
      submits;
      decides;
      fast_rounds;
      expired_rounds;
      late_frames;
      dropped_frames;
      slab_capacity;
      slab_reused;
      wal_appends;
      wal_replayed;
      catchup_in;
      catchup_out;
    }

let pp ppf s =
  Format.fprintf ppf
    "out: %d frames / %d bytes in %d writes (%d partial, %d flushes, max \
     batch %d, %d copies saved) · in: %d frames · %d submits, %d decides · \
     rounds: %d fast / %d expired · %d late, %d dropped · slab %d slots (%d \
     reused)%s%s"
    s.frames_out s.bytes_out s.write_calls s.partial_writes s.flushes
    s.max_batch s.copies_saved s.frames_in s.submits s.decides s.fast_rounds
    s.expired_rounds s.late_frames s.dropped_frames s.slab_capacity
    s.slab_reused
    (if s.overflow_kills > 0 then
       Printf.sprintf " · %d overflow kills" s.overflow_kills
     else "")
    (if s.wal_appends + s.wal_replayed + s.catchup_in + s.catchup_out > 0 then
       Printf.sprintf " · wal %d fsyncs, %d replayed · catchup %d in / %d out"
         s.wal_appends s.wal_replayed s.catchup_in s.catchup_out
     else "")

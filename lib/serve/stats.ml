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
  mutable presync_writes : int;
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
    presync_writes = 0;
    wal_replayed = 0;
    catchup_in = 0;
    catchup_out = 0;
  }

(* Every counter once, in report order: its JSON name and how to read
   and write it.  Gauges combine across lives by max, counters by sum. *)
let fields =
  [
    ("frames_out", (fun s -> s.frames_out), fun s v -> s.frames_out <- v);
    ("bytes_out", (fun s -> s.bytes_out), fun s v -> s.bytes_out <- v);
    ("write_calls", (fun s -> s.write_calls), fun s v -> s.write_calls <- v);
    ("partial_writes", (fun s -> s.partial_writes), fun s v -> s.partial_writes <- v);
    ("copies_saved", (fun s -> s.copies_saved), fun s v -> s.copies_saved <- v);
    ("overflow_kills", (fun s -> s.overflow_kills), fun s v -> s.overflow_kills <- v);
    ("flushes", (fun s -> s.flushes), fun s v -> s.flushes <- v);
    ("max_batch", (fun s -> s.max_batch), fun s v -> s.max_batch <- v);
    ("frames_in", (fun s -> s.frames_in), fun s v -> s.frames_in <- v);
    ("submits", (fun s -> s.submits), fun s v -> s.submits <- v);
    ("decides", (fun s -> s.decides), fun s v -> s.decides <- v);
    ("fast_rounds", (fun s -> s.fast_rounds), fun s v -> s.fast_rounds <- v);
    ("expired_rounds", (fun s -> s.expired_rounds), fun s v -> s.expired_rounds <- v);
    ("late_frames", (fun s -> s.late_frames), fun s v -> s.late_frames <- v);
    ("dropped_frames", (fun s -> s.dropped_frames), fun s v -> s.dropped_frames <- v);
    ("slab_capacity", (fun s -> s.slab_capacity), fun s v -> s.slab_capacity <- v);
    ("slab_reused", (fun s -> s.slab_reused), fun s v -> s.slab_reused <- v);
    ("wal_appends", (fun s -> s.wal_appends), fun s v -> s.wal_appends <- v);
    ("presync_writes", (fun s -> s.presync_writes), fun s v -> s.presync_writes <- v);
    ("wal_replayed", (fun s -> s.wal_replayed), fun s v -> s.wal_replayed <- v);
    ("catchup_in", (fun s -> s.catchup_in), fun s v -> s.catchup_in <- v);
    ("catchup_out", (fun s -> s.catchup_out), fun s v -> s.catchup_out <- v);
  ]

let gauges = [ "max_batch"; "slab_capacity" ]

let add a b =
  List.iter
    (fun (name, get, set) ->
      set a
        (if List.mem name gauges then max (get a) (get b) else get a + get b))
    fields

let to_json s =
  Obs.Json.Obj (List.map (fun (name, get, _) -> (name, Obs.Json.Int (get s))) fields)

(* A missing counter reads as 0, so older reports still parse. *)
let of_json = function
  | Obs.Json.Obj kv ->
    let s = create () in
    List.fold_left
      (fun acc (name, _, set) ->
        Result.bind acc (fun () ->
            match List.assoc_opt name kv with
            | Some (Obs.Json.Int i) -> Ok (set s i)
            | Some _ -> Error (Printf.sprintf "stats.%s: not an int" name)
            | None -> Ok ()))
      (Ok ()) fields
    |> Result.map (fun () -> s)
  | _ -> Error "stats: not an object"

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
       Printf.sprintf
         " · wal %d fsyncs (%d peer writes ahead), %d replayed · catchup %d \
          in / %d out"
         s.wal_appends s.presync_writes s.wal_replayed s.catchup_in
         s.catchup_out
     else "")

(** The event-loop stats sink: every per-node counter the serve layer
    reports, including the [write_calls] count that demonstrates batching
    (the acceptance metric vs [--no-batch]).

    [fast_rounds] counts rounds a multiplexed instance advanced as soon as
    the round's expected control messages arrived; [expired_rounds] counts
    rounds that had to wait out the full round deadline (a crashed
    coordinator, exactly the paper's failure-detector-by-timeout). *)

type t = {
  mutable frames_out : int;
  mutable bytes_out : int;
  mutable write_calls : int;  (** actual write(2)-level sends after batching *)
  mutable partial_writes : int;  (** writes the kernel cut short (resumed later) *)
  mutable copies_saved : int;  (** batch buffers handed over without copying *)
  mutable overflow_kills : int;  (** destinations dropped at the queue high-water mark *)
  mutable flushes : int;  (** batch flush sweeps *)
  mutable max_batch : int;  (** most frames coalesced into one write *)
  mutable frames_in : int;
  mutable submits : int;
  mutable decides : int;
  mutable fast_rounds : int;
  mutable expired_rounds : int;
  mutable late_frames : int;  (** frames for rounds already advanced past *)
  mutable dropped_frames : int;  (** frames for decided/unknown instances *)
  mutable slab_capacity : int;  (** instance slots ever allocated (gauge) *)
  mutable slab_reused : int;  (** slots recycled through the free list *)
  mutable wal_appends : int;
      (** WAL commits that wrote something — one write + fsync each, so
          this counts fsyncs, not entries.  The socket engine bumps it per
          non-empty {!Wal.commit}; the {!Mux} never does, so an owner
          that persists through {!Wal.append} on its own counts nothing
          here. *)
  mutable wal_replayed : int;  (** decisions recovered from the WAL at restart *)
  mutable catchup_in : int;  (** peer catch-up decisions adopted *)
  mutable catchup_out : int;  (** decisions replayed/mirrored to rejoined peers *)
}

val create : unit -> t
val add : t -> t -> unit
val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit

(** Replayable counterexample artifacts.

    A shrunk counterexample is only useful if it survives the session that
    found it: this module serializes one — schedule or fault script, plus
    the system parameters and the shrink certificate — as a single JSON
    document ({!Obs.Json}, no external dependency), and replays a loaded
    artifact from scratch, re-deriving the violation rather than trusting
    the file.  [bin shrink --repro FILE] writes, reloads and replays in
    one breath; the CI fuzz smoke uploads the artifact of any failure it
    finds. *)

open Model

type case =
  | Consensus of { algo : string; schedule : Schedule.t; property : string }
      (** [algo] (an {!Algo.t} name) violates the named uniform-consensus
          check on [schedule] *)
  | Cross_engine of { schedule : Schedule.t }
      (** the engines of {!Oracle.check_schedule} disagree on [schedule] *)
  | Chaos of {
      budget : int;
      engine_seed : int64;
      actions : Net.Fault_plan.action array;
    }
      (** the masked transport under the scripted fault plan decides
          wrongly ({!Oracle.check_masked} returns [Wrong]) *)

type t = {
  n : int;
  t : int;
  case : case;
  steps : int;  (** accepted shrink reductions *)
  candidates : int;  (** property evaluations spent shrinking *)
  one_minimal : bool;
      (** every single-step reduction of the artifact passes (the
          shrinker's fixpoint certificate) *)
}

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result

val schedule_to_json : Schedule.t -> Obs.Json.t
val schedule_of_json : Obs.Json.t -> (Schedule.t, string) result
(** The schedule wire encoding, exposed for other artifact formats that
    embed schedules (distributed-sweep shard results and checkpoints). *)

val save : file:string -> t -> unit
(** Durable and atomic ({!Obs.Json.save_atomic}): tmp write, fsync,
    rename. *)

type load_error = {
  file : string;
  offset : int option;  (** byte offset, for JSON syntax errors *)
  reason : string;
}
(** Why an artifact failed to load: unreadable file, truncated or
    syntactically corrupt JSON (with the offending byte offset), or a
    well-formed document that doesn't decode to a repro (bad version,
    missing field, out-of-range pid…). *)

val load_error_to_string : load_error -> string

val load : string -> (t, load_error) result
(** Never raises, whatever the file holds — truncated saves, byte-flipped
    JSON, deeply nested garbage and schema-valid-but-meaningless documents
    all come back as a structured [Error]. *)

val replay : t -> (string list, string) result
(** Re-run the artifact's case from scratch.  [Ok details] means the
    violation reproduced ([details] are the failing check details /
    disagreement diffs — always non-empty); [Error why] means it did not,
    or the artifact references an unknown algorithm or property. *)

val pp : Format.formatter -> t -> unit

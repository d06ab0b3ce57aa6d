(** The per-engine durable decision log.

    Decisions are {e staged} with {!add} and made durable together by
    {!commit}: one [write] and one [fsync] for everything staged since the
    last commit.  The engine commits once per event-loop turn, before any
    frame of that turn reaches a socket, so once a client can see a
    decision, the decision survives the process.  {!append} is [add] then
    [commit], for owners that want the per-decision behaviour.  A
    respawned engine replays its WAL to re-seed the mux's decision table,
    so re-submitted instances are answered idempotently and never re-run.

    Layout: a 12-byte header — magic ["SAWL"], a be32 format version and
    the be32 owning node id (a header mismatch means the file is not this
    node's log and recovery degrades to a clean fresh join) — followed by
    one CRC-framed {!Live.Frame.Decide} per decision, exactly the wire
    encoding.  A commit of many entries is just as many frames, so a
    crash mid-commit tears it at a frame boundary or inside one frame,
    like any other tail.  Reads are incremental and adversarial, in the
    [Minimize.Repro.load] tradition: a torn tail (the fsync'd prefix of a
    crashed commit) or any CRC/kind corruption rejects the file {e from
    that point on} — the valid prefix is kept, because every entry in it
    carried a valid CRC when written, and the suffix is discarded, never
    resurrected.  {!recover} additionally truncates the discarded suffix
    so the next commit extends a clean log.  Every read streams the file
    in fixed-size slices; only {!load} and {!recover} build the entry
    list. *)

type t
(** An open log, positioned for appending. *)

type entry = { instance : int; value : int; round : int }

type recovery = {
  entries : entry list;  (** the valid prefix, in append order *)
  discarded : int;  (** torn/corrupt suffix bytes rejected by the read *)
}

val path : dir:string -> node:int -> string
(** The conventional location of node [node]'s log under a fleet
    workspace: [dir/wal-p<node>.bin]. *)

val load : path:string -> node:int -> (recovery, string) result
(** Read-only recovery scan.  A missing file is an empty log; a header
    mismatch (bad magic, unknown version, wrong node) is [Error].  Never
    raises. *)

val recover : path:string -> node:int -> (t * recovery, string) result
(** Open [path] for appending, creating it (with a fresh header) if
    missing.  Replays the valid prefix, truncates any rejected suffix in
    place (fsync'd), and leaves the log positioned at its end.  [Error]
    on a header mismatch — delete the file and {!recover} again for a
    fresh join. *)

val reopen : path:string -> node:int -> (t * int, string) result
(** {!recover} without building the entry list: returns the log and the
    discarded byte count.  Stream the entries with {!iter}. *)

val add : t -> instance:int -> value:int -> round:int -> unit
(** Stage one decision.  Nothing reaches the file until {!commit}. *)

val commit : t -> int
(** Write every staged decision and fsync once; returns how many entries
    became durable.  With nothing staged it makes no syscall and returns
    0. *)

val append : t -> instance:int -> value:int -> round:int -> unit
(** {!add} then {!commit}: when [append] returns, the decision is
    durable. *)

val iter : t -> (instance:int -> value:int -> round:int -> unit) -> unit
(** Stream every committed decision in the log, in log order — the
    replayed prefix included, staged entries excluded.  One sequential
    read of the file. *)

val appended : t -> int
(** Entries committed through this handle (excludes replayed ones). *)

val close : t -> unit

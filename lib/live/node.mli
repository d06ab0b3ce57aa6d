(** One live consensus process: the per-node main loop forked by the
    supervisor.

    The node builds the full socket mesh (listen first, dial higher ids,
    accept lower ids — deadlock-free), reports readiness on its status
    pipe, waits for the supervisor's [go t0] line, and then runs
    deadline-synchronized rounds: round [r] opens at
    [t0 + (r-1)(D + delta)], the send phase is one sequence of sequential
    writes (data frames, then control frames), receiving lasts until the
    close at [open + D], and the computation runs inside the [delta]
    slack.  A scripted kill completes exactly its write budget and then
    SIGSTOPs itself — the supervisor observes the stop and delivers the
    real [SIGKILL], so the bytes on the wire are exactly the prefix the
    extended model's crash semantics promise.

    Dead peers (EOF, send timeout, corrupt stream) are degraded to
    "crashed" and the round structure carries on — the algorithm is the
    thing that must tolerate them. *)

type config = {
  me : int;
  n : int;
  t : int;
  proposal : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;  (** the paper's [D]: send + receive window per round *)
  delta : float;  (** the paper's [delta]: computation slack per round *)
  max_rounds : int;
  kill : Script.kill option;  (** this node's scripted death, if any *)
  status : out_channel;  (** JSON event lines to the supervisor *)
  go : in_channel;  (** the supervisor's [go t0] line *)
  log : out_channel;
}

val dial_hello :
  ?jitter:Prng.Rng.t ->
  deadline:float ->
  me:int ->
  Unix.sockaddr ->
  (Unix.file_descr, string) result
(** {!Sockets.connect_retry}, then say Hello as node [me] ([0]: a client). *)

val handshake :
  ?jitter:Prng.Rng.t ->
  ?client:(Unix.file_descr -> unit) ->
  deadline:float ->
  me:int ->
  n:int ->
  addr:(int -> Unix.sockaddr) ->
  log:(string -> unit) ->
  Unix.file_descr ->
  Unix.file_descr option array
(** Dial the higher ids, then accept the lower ids on the listen fd — one
    dialer per edge, so no deadlock.  Index [p - 1] is the link to node
    [p]; a client's Hello (node 0) goes to [client].  Raises [Failure]. *)

module Make (_ : Binding.ALGO) : sig
  val main : config -> unit
  (** Runs to decision, round horizon, or scripted stop.  Raises on
      unrecoverable setup failures (mesh never formed); the forking parent
      turns that into a nonzero exit. *)
end

module Rwwc : sig
  val main : config -> unit
end

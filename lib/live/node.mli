(** One live consensus process: its rounds as a value apart from any
    transport ({!Make}), and the per-node socket program forked by the
    supervisor ({!Make.main}).

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
  (** One process's rounds, apart from any transport: {!main} drives them
      over sockets on the round clock, [Live.Loopback] in lockstep over
      in-memory streams. *)

  type t

  val create :
    n:int ->
    t:int ->
    me:int ->
    proposal:int ->
    kill:Script.kill option ->
    log:(string -> unit) ->
    t
  (** Process [me] before round 1.  [kill] is its scripted death; [log]
      receives the lines for a peer given up on (corrupt stream,
      undecodable payload) and for late frames.  A transport with no
      failure to tolerate passes a [log] that raises. *)

  val inbox : t -> from:int -> Frame.decoder
  (** Where the bytes from [from] land.  {!send} feeds [me]'s own inbox
      itself: self-delivery shares the wire path. *)

  val send :
    t -> round:int -> write:(int -> string -> unit) -> [ `Sent | `Halted ]
  (** The round's send phase: the data frames, then the control frames, as
      one sequence of [write dest bytes] calls.  In the kill's round only
      its {!Script.writes_completed} prefix is written and the result is
      [`Halted]: the process is at its crash point and takes no further
      step. *)

  val receive : t -> round:int -> int list
  (** Serve the frames stashed for [round], then consume every complete
      frame in every inbox: [round]'s frames are kept for {!compute},
      later rounds' are stashed, earlier rounds' are logged and dropped.
      Returns the peers given up on by this call (a corrupt stream or an
      undecodable payload, logged); their inboxes are never read again. *)

  val compute : t -> round:int -> int * int * int option
  (** The round's computation on what {!receive} kept, in increasing pid
      order as the abstract engine delivers it: the data and control
      receive counts and the decision, if any. *)

  val main : config -> unit
  (** The socket program: handshake, [ready], [go], then per round: sleep
      to the round's opening, {!send} (a [`Halted] is the SIGSTOP), read
      into the inboxes with {!receive} until the close, {!compute}, and
      the status lines.  Runs to decision, round horizon, or scripted
      stop.  Raises on unrecoverable setup failures (mesh never formed);
      the forking parent turns that into a nonzero exit. *)
end

module Rwwc : sig
  val main : config -> unit
end

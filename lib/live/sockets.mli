(** Blocking-free socket plumbing for the live runtime.

    Everything here degrades gracefully instead of aborting: a connect
    retries with exponential backoff until a deadline (peers come up in
    arbitrary order), a send gives up after a per-peer timeout, and a dead
    peer surfaces as [Error] / [`Closed] — the caller marks it crashed and
    keeps going, which is the whole point of running consensus under
    [kill -9].

    No entry point raises [Unix.Unix_error]: every failure comes back as a
    structured {!error} carrying the operation, the errno (when there is
    one) and a human-readable detail, so callers can match on the cause
    (retry a refused connect, absorb a reset peer) without parsing
    strings. *)

type error = {
  op : string;  (** the socket operation that failed: "connect", "bind", … *)
  errno : Unix.error option;  (** the errno, when the failure was a syscall *)
  detail : string;  (** human-readable context (address, timeout, …) *)
}

val error_to_string : error -> string
val now : unit -> float
(** [Unix.gettimeofday] — one clock for every process on the machine, which
    is what makes supervisor-distributed round deadlines meaningful. *)

val sleep_until : float -> unit
(** Absolute-time sleep, EINTR-proof. *)

val addr_of : transport:[ `Unix of string | `Tcp of int ] -> int -> Unix.sockaddr
(** The rendezvous address of node [i]: [dir/node-i.sock], or
    [127.0.0.1:(base + i)]. *)

val listen : ?backlog:int -> Unix.sockaddr -> (Unix.file_descr, error) result
(** Bind (unlinking a stale Unix-domain path) and listen.  A taken port, a
    read-only socket directory or an over-long Unix path all come back as
    [Error], never as a raised [Unix_error]. *)

val connect_retry :
  ?backoff:float ->
  ?backoff_max:float ->
  ?jitter:Prng.Rng.t ->
  deadline:float ->
  Unix.sockaddr ->
  (Unix.file_descr, error) result
(** Connect with retry and bounded exponential backoff (default 20 ms
    doubling to 320 ms) until the overall [deadline]; refused / not-yet-bound
    addresses are retried, anything else is an error.  [EINTR] during the
    connect or the backoff sleep restarts the attempt, it never leaks out.
    With [jitter], each wait is the backoff level scaled by a uniform draw
    in [0.5, 1.5) from the seeded stream, so a mass respawn doesn't
    thundering-herd the listener; see {!retry_wait}. *)

val retry_wait : ?jitter:Prng.Rng.t -> float -> float
(** The wait {!connect_retry} sleeps before a retry at backoff level
    [backoff]: [backoff] itself, or — with [jitter] — a draw from the
    envelope [\[0.5 * backoff, 1.5 * backoff)].  Exposed so tests can pin
    the envelope. *)

val accept_timeout :
  deadline:float -> Unix.file_descr -> (Unix.file_descr, error) result

val accept_nonblock :
  Unix.file_descr -> [ `Conn of Unix.file_descr | `Nothing | `Error of error ]
(** One nonblocking accept on a nonblocking listen fd: the connection
    (close-on-exec, nonblocking) or [`Nothing] when the backlog is empty
    ([EAGAIN]/[EINTR]/an aborted handshake).  The serve event loop calls
    this in a drain-until-[`Nothing] loop per readable wakeup, so a burst
    of clients costs one wakeup, not one each. *)

val write_all :
  deadline:float -> Unix.file_descr -> string -> (unit, error) result
(** Write the whole string to a fd, retrying [EINTR] and short writes, and
    waiting for writability up to [deadline] — the per-peer send timeout.
    [Error] on timeout, EPIPE, or reset: the peer is gone. *)

val read_chunk :
  Unix.file_descr -> bytes -> [ `Data of int | `Closed | `Nothing ]
(** One nonblocking read: bytes read, orderly/abortive close, or nothing
    available. *)

val read_exact :
  deadline:float -> Unix.file_descr -> int -> (string, error) result
(** Read exactly [n] bytes — a connection's Hello — waiting for
    readability up to [deadline]: the handshake reader of both the live
    node and the serve engine, so neither reads past the Hello into
    bytes that belong to the connection's frame decoder.  [Error] on
    timeout or when the peer closes first. *)

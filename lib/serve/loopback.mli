(** The deterministic serve mesh: n real {!Engine}s in one process,
    linked by [socketpair]s (plus one per node for its client channel)
    and stepped on a virtual clock.

    Each pass steps every engine once at timeout 0; passes repeat until
    one moves no byte, then the clock jumps to the earliest engine
    deadline.  A storm with a crashed coordinator costs virtual [big_d]
    but almost no wall time, so a 1000-instance kill storm runs inside
    the test suite.  A victim that halts at its kill budget has its fds
    closed, as the fleet's SIGKILL would: its peers read the prefix it
    flushed, then EOF, and its realized crash points are judged.  Every
    count in the {!Report} — write calls, flushes, expired rounds — is
    the engine's own. *)

module Make (A : Live.Binding.ALGO) : sig
  type config = {
    n : int;
    t : int;
    instances : int;
    window : int;  (** concurrent instances in flight (client window) *)
    big_d : float;
    batch : bool;
    kill : Report.kill_spec option;
    max_rounds : int option;  (** default [t + 1] *)
    proposals : int -> int -> int;  (** instance -> node -> proposal *)
  }

  val run : config -> Report.t

  val run_counting_words : config -> Report.t * float
  (** {!run}, also returning the minor-heap words the engines' turns
      allocated: only {!Engine.Make.step} is counted, not the client side,
      the settle loop or {!Report.build}.  Deterministic for a given
      config, like every other count of the storm. *)
end

module Rwwc : module type of Make (Live.Binding.Rwwc)

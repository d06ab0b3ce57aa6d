(** The in-memory loopback transport: the live node's own rounds without
    the sockets.

    Each process is a {!Node.Make} round value, the same one the socket
    program drives.  A process's [write] to [d] feeds [d]'s inbox from it,
    so every byte that the loopback delivers went through encode, CRC and
    decode exactly as it would on a real wire.  Rounds are lockstep (no
    clock): every live process sends in pid order, then every live process
    receives and computes in pid order.  A scripted kill is the node's own
    write budget, so the victim's write sequence stops at the scripted
    position; the result is a fully deterministic {!Transcript.t}, which
    is what `dune runtest` pins. *)

module Make (A : Binding.ALGO) : sig
  val run :
    ?proposals:int array ->
    ?max_rounds:int ->
    n:int ->
    t:int ->
    script:Script.t ->
    unit ->
    Transcript.t
  (** Defaults: distinct proposals [1..n], [max_rounds = t + 2].  Raises
      [Invalid_argument] on an invalid script (bad pid, duplicate victim,
      more than [t] kills) and [Failure] on wire corruption or a frame
      for a round already closed (either would be a codec bug — loopback
      streams cannot be damaged or delayed in flight). *)
end

module Rwwc : module type of Make (Binding.Rwwc)
(** The Figure 1 algorithm over the loopback transport. *)

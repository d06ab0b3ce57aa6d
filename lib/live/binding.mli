(** What the live runtime and the service need to know about an algorithm
    beyond the abstract {!Sync_sim.Algorithm_intf.S} contract: how its
    data messages look on a wire, where its sends of a given round are
    addressed, and when a round can complete early.  [Live.Node],
    [Live.Loopback] and every [Serve] functor take this one signature.

    [send_plan] exists for the judge, not the node: a scripted kill names a
    write {e prefix}, and translating that prefix into an abstract
    {!Model.Crash.point} (which names delivered {e destinations}) requires
    the send order.  It must agree with what [data_sends]/[sync_sends]
    return for a live, undecided process — for the Figure 1 algorithm the
    destinations depend only on [(me, round, n)], never on the estimate. *)

open Model

module type ALGO = sig
  include Sync_sim.Algorithm_intf.S

  val encode_msg : msg -> string
  (** Wire payload of a data message. *)

  val decode_msg_view : Frame.view -> (msg, string) result
  (** Inverse of [encode_msg], reading straight out of a decoder view's
      payload window, so no receive path copies a payload to a string.
      [Error] on malformed payloads (the frame layer already filtered
      corruption, so this only rejects wrong-protocol peers). *)

  val send_plan : n:int -> me:Pid.t -> round:int -> Pid.t list * Pid.t list
  (** [(data destinations in send order, control destinations in send
      order)] of a live undecided [me] in [round]. *)

  val round_senders : n:int -> me:Pid.t -> round:int -> Pid.t list
  (** The peers whose round-[round] traffic toward [me] is terminated by
      their control message under FIFO delivery — once a control message
      from each listed sender has arrived, every message the round can
      deliver to [me] has arrived, and a multiplexed instance may advance
      without waiting out the round deadline.  An empty list means the
      round completes immediately after [me]'s own sends (e.g. the
      coordinator's round).  Crashed senders simply never complete the
      certificate and the instance falls back to the deadline — the
      paper's timeout-as-failure-detector, kept per instance. *)
end

module Rwwc : ALGO with type msg = Core.Rwwc.msg and type state = Core.Rwwc.state
(** The paper's Figure 1 algorithm with a 4-byte big-endian estimate
    payload. *)

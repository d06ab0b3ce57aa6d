open Model

module type ALGO = sig
  include Sync_sim.Algorithm_intf.S

  val encode_msg : msg -> string
  val decode_msg_view : Frame.view -> (msg, string) result
  val send_plan : n:int -> me:Pid.t -> round:int -> Pid.t list * Pid.t list
  val round_senders : n:int -> me:Pid.t -> round:int -> Pid.t list
end

module Rwwc = struct
  include Core.Rwwc

  let encode_msg (Core.Rwwc.Data v) =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (v land 0xff));
    Bytes.to_string b

  let decode_msg_view (v : Frame.view) =
    if v.Frame.payload_len <> 4 then
      Error
        (Printf.sprintf "rwwc payload: expected 4 bytes, got %d"
           v.Frame.payload_len)
    else
      let b = v.Frame.payload_buf and p = v.Frame.payload_pos in
      Ok
        (Core.Rwwc.Data
           ((Char.code (Bytes.get b p) lsl 24)
           lor (Char.code (Bytes.get b (p + 1)) lsl 16)
           lor (Char.code (Bytes.get b (p + 2)) lsl 8)
           lor Char.code (Bytes.get b (p + 3))))

  (* Figure 1: only the round's coordinator sends — data ascending to
     p_{r+1}..p_n, then commits descending p_n..p_{r+1}. *)
  let send_plan ~n ~me ~round =
    if Pid.to_int me = round then
      (Pid.range ~lo:(round + 1) ~hi:n, Pid.range_desc ~hi:n ~lo:(round + 1))
    else ([], [])

  (* Toward any one destination the coordinator's data message precedes its
     control message in that write order, so over FIFO links the control
     message certifies the whole round's traffic from that sender. *)
  let round_senders ~n:_ ~me ~round =
    if Pid.to_int me = round then [] else [ Pid.of_int round ]
end

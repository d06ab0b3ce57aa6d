open Model

module Make (A : Binding.ALGO) = struct
  module N = Node.Make (A)

  let run ?proposals ?max_rounds ~n ~t ~script () =
    let proposals =
      match proposals with
      | Some p -> p
      | None -> Sync_sim.Engine.distinct_proposals n
    in
    if Array.length proposals <> n then
      invalid_arg "Loopback.run: proposals length <> n";
    (match Script.validate ~n ~max_kills:t script with
    | Ok () -> ()
    | Error why -> invalid_arg ("Loopback.run: " ^ why));
    let max_rounds = match max_rounds with Some m -> m | None -> t + 2 in
    (* In-memory streams are never damaged and never late: anything the
       node would log is a codec bug. *)
    let log why = failwith ("Loopback: " ^ why) in
    let procs =
      Array.init n (fun i ->
          N.create ~n ~t ~me:(i + 1) ~proposal:proposals.(i)
            ~kill:(Script.find script (Pid.of_int (i + 1)))
            ~log)
    in
    let statuses = Array.make n Transcript.Undecided in
    let rounds = Array.make n [] in
    let live = function
      | Transcript.Undecided -> true
      | Transcript.Decided _ | Transcript.Killed _ -> false
    in
    let executed = ref 0 in
    let r = ref 1 in
    while !r <= max_rounds && Array.exists live statuses do
      let round = !r in
      executed := round;
      for i = 0 to n - 1 do
        if live statuses.(i) then
          let write dest bytes =
            Frame.feed_string (N.inbox procs.(dest - 1) ~from:(i + 1)) bytes
          in
          match N.send procs.(i) ~round ~write with
          | `Sent -> ()
          | `Halted ->
            statuses.(i) <- Transcript.Killed { at_round = round; scripted = true }
      done;
      for i = 0 to n - 1 do
        if live statuses.(i) then begin
          ignore (N.receive procs.(i) ~round : int list);
          let data_recv, ctl_recv, decision = N.compute procs.(i) ~round in
          rounds.(i) <-
            {
              Transcript.round;
              open_skew = 0.0;
              close_skew = 0.0;
              data_recv;
              ctl_recv;
            }
            :: rounds.(i);
          Option.iter
            (fun value ->
              statuses.(i) <- Transcript.Decided { value; at_round = round })
            decision
        end
      done;
      incr r
    done;
    {
      Transcript.n;
      t;
      proposals;
      statuses;
      rounds = Array.map List.rev rounds;
      max_round = !executed;
    }
end

module Rwwc = Make (Binding.Rwwc)

module Sim = Taq_engine.Sim
module Tcp_sender = Taq_tcp.Tcp_sender

type t = {
  sim : Sim.t;
  epoch : float;
  wmax : int;
  counts : int array;
  mutable observations : int;
}

let create ~sim ~epoch ~wmax () =
  if epoch <= 0.0 then invalid_arg "Occupancy.create: epoch";
  if wmax < 1 then invalid_arg "Occupancy.create: wmax";
  { sim; epoch; wmax; counts = Array.make (wmax + 1) 0; observations = 0 }

let attach t sender =
  let sent_this_epoch = ref 0 in
  Tcp_sender.on_transmit sender (fun p ->
      match p.Taq_net.Packet.kind with
      | Taq_net.Packet.Data -> incr sent_this_epoch
      | Taq_net.Packet.Syn | Taq_net.Packet.Syn_ack | Taq_net.Packet.Ack
      | Taq_net.Packet.Fin ->
          ());
  let rec tick () =
    match Tcp_sender.state sender with
    | Tcp_sender.Complete | Tcp_sender.Failed -> ()
    | Tcp_sender.Closed | Tcp_sender.Syn_sent | Tcp_sender.Established ->
        (* Only count epochs of established flows: the model describes
           a connected sender. *)
        if Tcp_sender.state sender = Tcp_sender.Established then begin
          let k = Stdlib.min !sent_this_epoch t.wmax in
          t.counts.(k) <- t.counts.(k) + 1;
          t.observations <- t.observations + 1
        end;
        sent_this_epoch := 0;
        Sim.schedule_after t.sim ~delay:t.epoch tick
  in
  Sim.schedule_after t.sim ~delay:t.epoch tick

let observations t = t.observations

let distribution t =
  if t.observations = 0 then Array.make (t.wmax + 1) 0.0
  else
    Array.map (fun c -> float_of_int c /. float_of_int t.observations) t.counts

let raw_counts t = Array.copy t.counts

module Dumbbell = Taq_net.Dumbbell
module Sim = Taq_engine.Sim

type t = {
  net : Dumbbell.t;
  sender : Tcp_sender.t;
  receiver : Tcp_receiver.t;
  flow : int;
}

let create ~net ~config ?flow ?(pool = -1) ~rtt_prop ~total_segments
    ?(close_on_drain = true) ?(on_complete = fun _ -> ())
    ?(on_fail = fun _ -> ()) () =
  let flow =
    match flow with Some f -> f | None -> Dumbbell.next_flow_id net
  in
  let alloc = Dumbbell.packet_alloc net in
  let sim = Dumbbell.sim net in
  let now () = Sim.now sim in
  let receiver =
    Tcp_receiver.create ~alloc ~flow ~pool ~config ~now
      ~send:(fun p -> Dumbbell.send_rev net p)
      ()
  in
  let finish kont time =
    Dumbbell.unregister_flow net ~flow;
    kont time
  in
  let sender =
    Tcp_sender.create ~sim ~config ~alloc ~flow ~pool ~total_segments
      ~close_on_drain
      ~transmit:(fun p -> Dumbbell.send_fwd net p)
      ~on_complete:(finish on_complete) ~on_fail:(finish on_fail) ()
  in
  Dumbbell.register_flow net ~flow ~rtt_prop
    ~deliver_fwd:(fun p -> Tcp_receiver.on_packet receiver p)
    ~deliver_rev:(fun p -> Tcp_sender.on_ack sender p);
  { net; sender; receiver; flow }

let start t = Tcp_sender.start t.sender

let sender t = t.sender

let receiver t = t.receiver

let flow_id t = t.flow

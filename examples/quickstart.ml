(* Quickstart: build a congested dumbbell, run the same contention once
   under droptail and once under TAQ, and compare short-term fairness.

     dune exec examples/quickstart.exe

   This is the minimal end-to-end use of the library: a simulator, a
   bottleneck with a queue discipline, TCP flows, and a fairness
   metric. *)

module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Slicer = Taq_metrics.Slicer

(* 60 long-lived flows over 400 Kbps with 500 B packets and a 200 ms
   RTT: each flow's fair share is under 2 packets per RTT — a small
   packet regime. *)
let capacity_bps = 400_000.0

let n_flows = 60

let rtt = 0.2

let duration = 120.0

let run_contention ~label ~disc ~sim =
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let tcp = Tcp_config.make ~use_syn:false () in
  let slicer = Slicer.create ~slice:20.0 in
  let flows =
    Array.init n_flows (fun _ ->
        let session =
          Tcp_session.create ~net ~config:tcp ~rtt_prop:rtt
            ~total_segments:max_int ()
        in
        let flow = Tcp_session.flow_id session in
        (* Goodput accounting: every new segment the receiver gets. *)
        Tcp_receiver.on_segment (Tcp_session.receiver session) (fun _seq ->
            Slicer.record slicer ~flow ~time:(Sim.now sim)
              ~bytes:Tcp_config.packet_bytes);
        Tcp_session.start session;
        flow)
  in
  Sim.run ~until:duration sim;
  let jain = Slicer.mean_jain slicer ~flows ~first:1 () in
  let link = Dumbbell.link net in
  Printf.printf "%-8s  Jain(20s slices) = %.3f   utilization = %.2f\n" label
    jain
    (Taq_net.Link.utilization link);
  jain

let () =
  let buffer_pkts = 20 in
  (* One RTT's worth of buffering, the paper's standard sizing. *)
  let dt_jain =
    let sim = Sim.create () in
    run_contention ~label:"droptail"
      ~disc:(Taq_queueing.Droptail.create ~capacity_pkts:buffer_pkts)
      ~sim
  in
  let taq_jain =
    let sim = Sim.create () in
    let config =
      Taq_core.Taq_config.default ~capacity_pkts:buffer_pkts ~capacity_bps
    in
    let taq = Taq_core.Taq_disc.create ~sim ~config () in
    run_contention ~label:"taq" ~disc:(Taq_core.Taq_disc.disc taq) ~sim
  in
  Printf.printf "\nTAQ improves 20s-slice fairness by %.0f%% in this regime.\n"
    ((taq_jain -. dt_jain) /. dt_jain *. 100.0)

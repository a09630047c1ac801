module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Tcp_sender = Taq_tcp.Tcp_sender

type mode = Bernoulli | Bottleneck of float

type params = {
  modes : mode list;
  variants : Tcp_config.variant list;
  loss_probabilities : float list;
  flows_per_mbps : int list;
  wmax : int;
  rtt : float;
  duration : float;
  seed : int;
}

let default =
  {
    modes = [ Bernoulli; Bottleneck 200e3; Bottleneck 750e3; Bottleneck 1000e3 ];
    variants = [ Tcp_config.Newreno; Tcp_config.Sack ];
    loss_probabilities = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ];
    (* Contention scaled by capacity so each bottleneck operates at a
       comparable point of the small packet regime. *)
    flows_per_mbps = [ 40; 80; 120 ];
    wmax = 6;
    rtt = 0.1;
    duration = 2000.0;
    seed = 31;
  }

let quick =
  {
    default with
    modes = [ Bernoulli; Bottleneck 1000e3 ];
    loss_probabilities = [ 0.1; 0.2; 0.3 ];
    flows_per_mbps = [ 80 ];
    duration = 600.0;
  }

type row = {
  setting : string;
  p : float;
  sim : float array;
  model : float array;
  l1 : float;
  epochs : int;
  sim_goodput : float;
  model_goodput : float;
  padhye_goodput : float;
}

(* The model's epoch is the RTT and its base timeout T0 = 2·RTT; the
   TCP configuration mirrors both (min RTO of 2 RTT, window capped at
   the model's Wmax in Bernoulli mode). *)
let validation_tcp ~rtt ~rcv_wnd =
  Tcp_config.make ~use_syn:false ~min_rto:(2.0 *. rtt) ~rcv_wnd ()

let model_distribution ~wmax ~p =
  (* Clamp to the model's domain: beyond p = 0.5 TCP never leaves the
     timeout machinery; the stationary distribution is all-silence. *)
  if p >= 0.499 then begin
    let d = Array.make (wmax + 1) 0.0 in
    d.(0) <- 1.0;
    d
  end
  else
    Taq_model.Partial_model.sent_distribution
      (Taq_model.Partial_model.create ~wmax ~p ())

let l1_distance a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  !acc

let finish ~setting ~p ~wmax ~delivered occ =
  let sim = Taq_metrics.Occupancy.distribution occ in
  let model = model_distribution ~wmax ~p in
  let epochs = Taq_metrics.Occupancy.observations occ in
  {
    setting;
    p;
    sim;
    model;
    l1 = l1_distance sim model;
    epochs;
    sim_goodput =
      (if epochs = 0 then 0.0 else float_of_int delivered /. float_of_int epochs);
    model_goodput = Taq_model.Analysis.goodput_pkts_per_epoch ~sent:model ~p;
    padhye_goodput =
      (if p <= 0.0 then nan
       else
         Taq_model.Padhye.throughput_pkts_per_rtt
           ~wmax:(float_of_int wmax) ~rtt:1.0 ~t0:2.0 ~p ());
  }

let variant_name = function
  | Tcp_config.Newreno -> "newreno"
  | Tcp_config.Sack -> "sack"

(* These runs build their simulator without Common.make_env, so they
   take the run spec's checker and counters here. *)
let spec_sim () =
  let spec = Run_spec.current () in
  Sim.create ~check:(Run_spec.checker spec) ~obs:(Run_spec.observer spec) ()

let run_bernoulli p_params ~variant ~p =
  let sim = spec_sim () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"clean" ~capacity_pkts:10_000 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e8 ~disc () in
  let tcp =
    { (validation_tcp ~rtt:p_params.rtt ~rcv_wnd:p_params.wmax) with
      Tcp_config.variant }
  in
  let occ =
    Taq_metrics.Occupancy.create ~sim ~epoch:p_params.rtt ~wmax:p_params.wmax ()
  in
  let prng = Taq_util.Prng.create ~seed:p_params.seed in
  let delivered = ref 0 in
  (* Stationary Bernoulli loss as a fault plan: one forward-path tap
     shared by every flow, drawing from the injector's split stream. *)
  ignore
    (Taq_fault.Injector.install ~net
       ~prng:(Taq_util.Prng.split prng)
       [ Taq_fault.Plan.Loss { p } ]);
  (* A handful of independent flows to grow the sample faster. *)
  for _ = 1 to 8 do
    let session =
      Tcp_session.create ~net ~config:tcp ~rtt_prop:p_params.rtt
        ~total_segments:max_int ()
    in
    Tcp_receiver.on_segment (Tcp_session.receiver session) (fun _ ->
        incr delivered);
    Taq_metrics.Occupancy.attach occ (Tcp_session.sender session);
    Tcp_session.start session
  done;
  Sim.run ~until:p_params.duration sim;
  finish
    ~setting:(Printf.sprintf "bernoulli/%s" (variant_name variant))
    ~p ~wmax:p_params.wmax ~delivered:!delivered occ

(* The paper's validation setting: a droptail bottleneck, TCP SACK,
   flows with variable RTTs (which desynchronizes losses, keeping them
   closer to the model's independence assumption). The epoch includes
   queueing delay: one RTT of buffering roughly doubles the
   propagation RTT under load. *)
let run_bottleneck p_params ~capacity_bps ~flows_per_mbps =
  let flows =
    Stdlib.max 8
      (int_of_float (capacity_bps /. 1e6 *. float_of_int flows_per_mbps))
  in
  let sim = spec_sim () in
  let buffer_pkts =
    Taq_queueing.Droptail.capacity_for_rtt ~capacity_bps ~rtt:p_params.rtt
      ~pkt_bytes:Common.pkt_bytes
  in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:buffer_pkts in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let loss = Taq_metrics.Loss_monitor.attach (Dumbbell.link net) in
  let epoch = 2.0 *. p_params.rtt in
  let occ = Taq_metrics.Occupancy.create ~sim ~epoch ~wmax:p_params.wmax () in
  let prng = Taq_util.Prng.create ~seed:p_params.seed in
  let delivered = ref 0 in
  for _ = 1 to flows do
    let rtt_prop =
      Taq_util.Prng.uniform prng ~lo:(p_params.rtt *. 0.5)
        ~hi:(p_params.rtt *. 1.5)
    in
    let tcp =
      {
        (validation_tcp ~rtt:(rtt_prop +. p_params.rtt) ~rcv_wnd:1_000_000) with
        Tcp_config.variant = Tcp_config.Sack;
      }
    in
    let session =
      Tcp_session.create ~net ~config:tcp ~rtt_prop ~total_segments:max_int ()
    in
    Tcp_receiver.on_segment (Tcp_session.receiver session) (fun _ ->
        incr delivered);
    Taq_metrics.Occupancy.attach occ (Tcp_session.sender session);
    Tcp_session.start session
  done;
  Sim.run ~until:p_params.duration sim;
  let p = Taq_metrics.Loss_monitor.overall_rate loss in
  let setting =
    Printf.sprintf "%gKbps/%dflows" (capacity_bps /. 1e3) flows
  in
  finish ~setting ~p ~wmax:p_params.wmax ~delivered:!delivered occ

let run p =
  List.concat_map
    (function
      | Bernoulli ->
          List.concat_map
            (fun variant ->
              List.map
                (fun lp -> run_bernoulli p ~variant ~p:lp)
                p.loss_probabilities)
            p.variants
      | Bottleneck capacity_bps ->
          List.map
            (fun flows_per_mbps ->
              run_bottleneck p ~capacity_bps ~flows_per_mbps)
            p.flows_per_mbps)
    p.modes

let print rows =
  let wmax = match rows with [] -> 6 | r :: _ -> Array.length r.sim - 1 in
  let class_cols =
    List.concat_map
      (fun k -> [ Printf.sprintf "sim_%d" k; Printf.sprintf "mdl_%d" k ])
      (List.init (wmax + 1) Fun.id)
  in
  let table =
    Taq_util.Table.create
      ~columns:
        ([ "setting"; "p"; "epochs" ] @ class_cols
        @ [ "L1"; "gput_sim"; "gput_mdl"; "gput_padhye" ])
  in
  List.iter
    (fun r ->
      let cells =
        [ r.setting; Printf.sprintf "%.3f" r.p; string_of_int r.epochs ]
        @ List.concat_map
            (fun k ->
              [
                Printf.sprintf "%.3f" r.sim.(k); Printf.sprintf "%.3f" r.model.(k);
              ])
            (List.init (wmax + 1) Fun.id)
        @ [
            Printf.sprintf "%.3f" r.l1;
            Printf.sprintf "%.2f" r.sim_goodput;
            Printf.sprintf "%.2f" r.model_goodput;
            Printf.sprintf "%.2f" r.padhye_goodput;
          ]
      in
      Taq_util.Table.add_row table cells)
    rows;
  Taq_util.Table.print table

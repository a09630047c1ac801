module Slicer = Taq_metrics.Slicer

type point = {
  queue : Common.queue;
  capacity_bps : float;
  buffer_pkts : int;
  flows : int;
  tcp : Taq_tcp.Tcp_config.t;
  rtt : float;
  duration : float;
  seed : int;
}

type row = {
  jain_short : float;
  jain_long : float;
  utilization : float;
  loss_rate : float;
}

let run ?(attach = ignore) p =
  let env =
    Common.make_env ~queue:p.queue ~capacity_bps:p.capacity_bps
      ~buffer_pkts:p.buffer_pkts ~seed:p.seed ()
  in
  attach env;
  let flows =
    Common.spawn_long_flows env ~tcp:p.tcp ~n:p.flows ~rtt:p.rtt
      ~rtt_jitter:0.1 ()
  in
  Common.run env ~until:p.duration;
  ( env,
    {
      jain_short = Slicer.mean_jain env.Common.slicer ~flows ~first:1 ();
      jain_long = Slicer.long_term_jain env.Common.slicer ~flows;
      utilization = Common.utilization env;
      loss_rate = Common.measured_loss_rate env;
    } )

let mean = function
  | [] -> invalid_arg "Long_point.mean: no rows"
  | rows ->
      let mean f = Taq_util.Stats.mean (Array.of_list (List.map f rows)) in
      {
        jain_short = mean (fun r -> r.jain_short);
        jain_long = mean (fun r -> r.jain_long);
        utilization = mean (fun r -> r.utilization);
        loss_rate = mean (fun r -> r.loss_rate);
      }

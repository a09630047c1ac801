type params = {
  queues : Common.queue list;
  capacities_bps : float list;
  fair_shares_bps : float list;
  duration : float;
  tcp : Taq_tcp.Tcp_config.t;
  seeds : int list;  (* fairness averaged over these runs *)
}

(* The paper quotes fair shares against an RTT of ~400 ms including
   queueing; propagation is 200 ms and one RTT of buffering roughly
   doubles it under load. *)
let rtt = 0.2

let default =
  {
    queues = [ Common.Droptail ];
    capacities_bps = [ 200e3; 400e3; 600e3; 800e3; 1000e3 ];
    fair_shares_bps = [ 2e3; 4e3; 7e3; 10e3; 15e3; 20e3; 30e3; 40e3; 50e3 ];
    duration = 400.0;
    tcp = Common.default_tcp;
    seeds = [ 11; 12 ];
  }

let quick =
  {
    default with
    capacities_bps = [ 200e3; 600e3; 1000e3 ];
    fair_shares_bps = [ 4e3; 10e3; 20e3; 40e3 ];
    duration = 200.0;
    seeds = [ 11 ];
  }

let testbed =
  {
    default with
    queues = [ Common.Droptail; Common.taq_marker ];
    capacities_bps = [ 600e3; 1000e3 ];
    fair_shares_bps = [ 4e3; 7e3; 10e3; 15e3; 20e3; 30e3; 40e3; 50e3 ];
    tcp = Taq_tcp.Tcp_config.make ~use_syn:true ();
    duration = 300.0;
  }

type row = {
  queue : string;
  capacity_bps : float;
  flows : int;
  fair_share_bps : float;
  scores : Long_point.row;
}

(* Each point is the mean over the configured seeds (single-seed runs
   of 20 s slices are noisy). *)
let run_one p ~queue ~capacity_bps ~fair_share_bps =
  let flows = Common.flows_for_fair_share ~capacity_bps ~fair_share_bps in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:1.0 in
  let run seed =
    snd
      (Long_point.run
         {
           queue;
           capacity_bps;
           buffer_pkts;
           flows;
           tcp = p.tcp;
           rtt;
           duration = p.duration;
           seed;
         })
  in
  {
    queue = Common.queue_name queue;
    capacity_bps;
    flows;
    fair_share_bps;
    scores = Long_point.mean (List.map run p.seeds);
  }

let run p =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun capacity_bps ->
          List.map
            (fun fair_share_bps ->
              run_one p ~queue ~capacity_bps ~fair_share_bps)
            p.fair_shares_bps)
        p.capacities_bps)
    p.queues

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [
          "queue";
          "capacity_bps";
          "flows";
          "fair_share_bps";
          "jain_20s";
          "jain_long";
          "utilization";
          "loss_rate";
        ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          Taq_util.Table.cell_float r.capacity_bps;
          string_of_int r.flows;
          Taq_util.Table.cell_float r.fair_share_bps;
          Printf.sprintf "%.3f" r.scores.jain_short;
          Printf.sprintf "%.3f" r.scores.jain_long;
          Printf.sprintf "%.3f" r.scores.utilization;
          Printf.sprintf "%.4f" r.scores.loss_rate;
        ])
    rows;
  Taq_util.Table.print table

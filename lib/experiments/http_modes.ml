module Sim = Taq_engine.Sim
module Web_session = Taq_workload.Web_session
module Persistent_session = Taq_workload.Persistent_session

type params = { clients : int; objects_per_client : int; duration : float }

let capacity_bps = 600e3
let rtt = 0.2
let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:1.0
let conns_per_client = 4
let object_bytes = 15_000
let seed = 53

let default = { clients = 40; objects_per_client = 60; duration = 600.0 }

let quick = { clients = 25; objects_per_client = 30; duration = 300.0 }

type row = {
  queue : string;
  http_mode : string;
  completed : int;
  median_download : float;
  p90_download : float;
  flows_opened : int;
  loss_rate : float;
}

type mode = Per_object | Persistent

let run_one p queue mode =
  let env = Common.make_env ~queue ~capacity_bps ~buffer_pkts ~seed () in
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
  let prng = Taq_util.Prng.create ~seed in
  let times = ref [] and flows = ref 0 in
  for client = 0 to p.clients - 1 do
    let start_at = Taq_util.Prng.float prng 30.0 in
    match mode with
    | Per_object ->
        let session =
          Web_session.create ~net:env.Common.net ~tcp ~pool:client ~rtt
            ~max_conns:conns_per_client
            (* requested->finished in both modes: the persistent mode's
               pipelining delay must be charged the same way as the
               per-object mode's connection-slot wait. *)
            ~on_fetch_done:(fun f ->
              if not (Float.is_nan f.Web_session.finished_at) then
                times :=
                  (f.Web_session.finished_at -. f.Web_session.requested_at)
                  :: !times)
            ()
        in
        for _ = 1 to p.objects_per_client do
          Web_session.request session ~size:object_bytes
        done;
        Sim.schedule env.Common.sim ~at:start_at (fun () ->
            Web_session.start session);
        (* Connection count is read once, just before the run ends. *)
        Sim.schedule env.Common.sim ~at:(p.duration -. 0.001) (fun () ->
            flows := !flows + List.length (Web_session.flow_ids session))
    | Persistent ->
        let session =
          Persistent_session.create ~net:env.Common.net ~tcp ~pool:client
            ~rtt ~conns:conns_per_client
            ~on_fetch_done:(fun f ->
              times :=
                (f.Persistent_session.finished_at
                -. f.Persistent_session.requested_at)
                :: !times)
            ()
        in
        Sim.schedule env.Common.sim ~at:start_at (fun () ->
            Persistent_session.start session;
            for _ = 1 to p.objects_per_client do
              Persistent_session.request session ~size:object_bytes
            done;
            flows := !flows + List.length (Persistent_session.flow_ids session))
  done;
  Common.run env ~until:p.duration;
  let xs = Array.of_list !times in
  {
    queue = Common.queue_name queue;
    http_mode = (match mode with Per_object -> "per-object" | Persistent -> "persistent");
    completed = Array.length xs;
    median_download =
      (if Array.length xs = 0 then nan else Taq_util.Stats.median xs);
    p90_download =
      (if Array.length xs = 0 then nan else Taq_util.Stats.percentile xs 90.0);
    flows_opened = !flows;
    loss_rate = Common.measured_loss_rate env;
  }

let run p =
  List.concat_map
    (fun queue ->
      List.map (fun mode -> run_one p queue mode) [ Per_object; Persistent ])
    [ Common.Droptail; Common.taq_marker ]

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [
          "queue";
          "http_mode";
          "completed";
          "median_s";
          "p90_s";
          "tcp_conns";
          "loss_rate";
        ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          r.http_mode;
          string_of_int r.completed;
          Printf.sprintf "%.2f" r.median_download;
          Printf.sprintf "%.2f" r.p90_download;
          string_of_int r.flows_opened;
          Printf.sprintf "%.4f" r.loss_rate;
        ])
    rows;
  Taq_util.Table.print table

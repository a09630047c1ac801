type params = {
  queues : Common.queue list;
  user_counts : int list;
  conns_per_user : int list;
  capacity_bps : float;
  rtt : float;
  object_segments : int;
  duration : float;
  seed : int;
}

let default =
  {
    queues = [ Common.Droptail; Common.taq_marker ];
    user_counts = [ 200; 400 ];
    conns_per_user = [ 4; 2 ];
    capacity_bps = 1000e3;
    rtt = 0.2;
    object_segments = 30;
    duration = 600.0;
    seed = 43;
  }

let quick =
  {
    default with
    user_counts = [ 100; 200 ];
    conns_per_user = [ 4 ];
    duration = 300.0;
  }

type row = {
  queue : string;
  users : int;
  conns : int;
  frac_hang_20s : float;
  frac_hang_60s : float;
  max_hang : float;
}

let run_one p queue ~users ~conns =
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps:p.capacity_bps ~rtt:p.rtt ~rtts:1.0
  in
  let queue = Common.resize ~capacity_bps:p.capacity_bps ~buffer_pkts queue in
  let env =
    Common.make_env ~queue ~capacity_bps:p.capacity_bps ~buffer_pkts
      ~seed:p.seed ()
  in
  let hangs = Taq_metrics.Hangs.create () in
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
  let object_bytes = p.object_segments * Taq_tcp.Tcp_config.mss in
  let prng = Taq_util.Prng.create ~seed:p.seed in
  for user = 0 to users - 1 do
    let session =
      Taq_workload.Web_session.create ~net:env.Common.net ~tcp ~pool:user
        ~rtt:p.rtt ~max_conns:conns ~hangs ()
    in
    (* An endless backlog: the browser always has the next object to
       fetch, so every silent period is a genuine hang. *)
    for _ = 1 to 1000 do
      Taq_workload.Web_session.request session ~size:object_bytes
    done;
    let at = Taq_util.Prng.float prng 10.0 in
    Taq_engine.Sim.schedule env.Common.sim ~at (fun () ->
        Taq_workload.Web_session.start session)
  done;
  Common.run env ~until:p.duration;
  let pools = Array.init users Fun.id in
  let max_hang =
    Array.fold_left
      (fun acc pool ->
        Float.max acc (Taq_metrics.Hangs.max_hang hangs ~pool ~until:p.duration))
      0.0 pools
  in
  {
    queue = Common.queue_name queue;
    users;
    conns;
    frac_hang_20s =
      Taq_metrics.Hangs.fraction_with_hang hangs ~pools ~min_hang:20.0
        ~until:p.duration;
    frac_hang_60s =
      Taq_metrics.Hangs.fraction_with_hang hangs ~pools ~min_hang:60.0
        ~until:p.duration;
    max_hang;
  }

let run p =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun users ->
          List.map (fun conns -> run_one p queue ~users ~conns) p.conns_per_user)
        p.user_counts)
    p.queues

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "queue"; "users"; "conns/user"; "frac>20s"; "frac>60s"; "max_hang_s" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          string_of_int r.users;
          string_of_int r.conns;
          Printf.sprintf "%.2f" r.frac_hang_20s;
          Printf.sprintf "%.2f" r.frac_hang_60s;
          Printf.sprintf "%.1f" r.max_hang;
        ])
    rows;
  Taq_util.Table.print table

module Trace = Taq_workload.Trace
module Web_session = Taq_workload.Web_session

type params = {
  capacity_bps : float;
  trace : Trace.params;
  trace_seed : int;
  max_conns : int;
  rtt : float;
  duration : float;
  seed : int;
}

let default =
  {
    capacity_bps = 2000e3;
    trace = Trace.default_params;
    trace_seed = 101;
    max_conns = 4;
    rtt = 0.3;
    duration = 1800.0;
    seed = 41;
  }

let quick =
  {
    default with
    capacity_bps = 600e3;
    trace =
      {
        Trace.default_params with
        Trace.clients = 40;
        duration = 600.0;
        mean_think = 60.0;
      };
    duration = 600.0;
  }

type bucket_row = {
  bucket_lo : float;
  bucket_hi : float;
  n : int;
  min : float;
  p10 : float;
  avg : float;
  p90 : float;
  max : float;
}

type result = {
  rows : bucket_row list;
  completed : int;
  unfinished : int;
  spread_orders : float;
}

let run_trace p ~queue ~trace =
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps:p.capacity_bps ~rtt:p.rtt ~rtts:1.0
  in
  let env =
    Common.make_env ~queue ~capacity_bps:p.capacity_bps ~buffer_pkts
      ~seed:p.seed ()
  in
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
  let sessions = Hashtbl.create 64 in
  let session_for client =
    match Hashtbl.find_opt sessions client with
    | Some s -> s
    | None ->
        let s =
          Web_session.create ~net:env.Common.net ~tcp ~pool:client ~rtt:p.rtt
            ~max_conns:p.max_conns ()
        in
        Web_session.start s;
        Hashtbl.replace sessions client s;
        s
  in
  (* Replay: each trace record becomes a request at its logged time. *)
  Array.iter
    (fun r ->
      if r.Trace.time < p.duration then
        Taq_engine.Sim.schedule env.Common.sim ~at:r.Trace.time (fun () ->
            Web_session.request (session_for r.Trace.client)
              ~size:r.Trace.size))
    trace;
  Common.run env ~until:p.duration;
  (* Bucket completed downloads by size: logarithmic decades from
     100 B, like the figure. *)
  let buckets : (int, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let completed = ref 0 and unfinished = ref 0 in
  let all_times = ref [] in
  Hashtbl.iter
    (fun _client session ->
      List.iter
        (fun f ->
          if Float.is_nan f.Web_session.finished_at then incr unfinished
          else begin
            incr completed;
            let dt = f.Web_session.finished_at -. f.Web_session.requested_at in
            let b =
              Taq_util.Stats.log_bucket ~base:10.0 ~first:100.0
                (float_of_int f.Web_session.size)
            in
            all_times := dt :: !all_times;
            match Hashtbl.find_opt buckets b with
            | Some l -> l := dt :: !l
            | None -> Hashtbl.replace buckets b (ref [ dt ])
          end)
        (Web_session.fetches session))
    sessions;
  let rows =
    Hashtbl.fold (fun b times acc -> (b, !times) :: acc) buckets []
    |> List.sort compare
    |> List.map (fun (b, times) ->
           let xs = Array.of_list times in
           let lo, hi = Taq_util.Stats.bucket_bounds ~base:10.0 ~first:100.0 b in
           let s = Taq_util.Stats.summarize xs in
           {
             bucket_lo = lo;
             bucket_hi = hi;
             n = s.Taq_util.Stats.n;
             min = s.Taq_util.Stats.min;
             p10 = s.Taq_util.Stats.p10;
             avg = s.Taq_util.Stats.mean;
             p90 = s.Taq_util.Stats.p90;
             max = s.Taq_util.Stats.max;
           })
  in
  let spread_orders =
    match !all_times with
    | [] -> 0.0
    | times ->
        let xs = Array.of_list times in
        let lo, hi = Taq_util.Stats.min_max xs in
        if lo <= 0.0 then 0.0 else log10 (hi /. lo)
  in
  { rows; completed = !completed; unfinished = !unfinished; spread_orders }

let run p =
  let trace = Trace.generate ~params:p.trace ~seed:p.trace_seed () in
  run_trace p ~queue:Common.Droptail ~trace

let print r =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "size_bucket"; "n"; "min_s"; "p10_s"; "avg_s"; "p90_s"; "max_s" ]
  in
  List.iter
    (fun row ->
      Taq_util.Table.add_row table
        [
          Printf.sprintf "%g-%gB" row.bucket_lo row.bucket_hi;
          string_of_int row.n;
          Printf.sprintf "%.2f" row.min;
          Printf.sprintf "%.2f" row.p10;
          Printf.sprintf "%.2f" row.avg;
          Printf.sprintf "%.2f" row.p90;
          Printf.sprintf "%.2f" row.max;
        ])
    r.rows;
  Taq_util.Table.print table;
  Taq_util.Out.printf
    "\ncompleted=%d unfinished=%d download-time spread: %.1f orders of magnitude\n"
    r.completed r.unfinished r.spread_orders

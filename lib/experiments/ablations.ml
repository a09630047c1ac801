module Taq_config = Taq_core.Taq_config

type params = { flows : int; duration : float }

let capacity_bps = 600e3
let rtt = 0.2
let seed = 47
let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:1.0

let default = { flows = 120; duration = 400.0 }

let quick = { flows = 80; duration = 200.0 }

type row = {
  ablation : string;
  variant : string;
  flows : int;
  scores : Long_point.row;
}

let run_variant p ~ablation ~variant ~flows config =
  let _, scores =
    Long_point.run
      {
        queue = Common.Taq config;
        capacity_bps;
        buffer_pkts;
        flows;
        tcp = Common.default_tcp;
        rtt;
        duration = p.duration;
        seed;
      }
  in
  { ablation; variant; flows; scores }

(* Each variant runs at two contention levels: the design trade-offs
   are regime dependent (notably the recovery cap, whose sign flips
   between moderate contention and the deep sub-packet regime). *)
let run_queue_ablations (p : params) =
  let base = Common.taq_config () in
  let levels = [ p.flows / 2; p.flows ] in
  List.concat_map
    (fun flows ->
      [
        run_variant p ~ablation:"recovery_cap" ~variant:"capped(0.25)" ~flows base;
        run_variant p ~ablation:"recovery_cap" ~variant:"uncapped" ~flows
          { base with Taq_config.recovery_share = 1.0 };
        run_variant p ~ablation:"recovery_cap" ~variant:"tiny(0.05)" ~flows
          { base with Taq_config.recovery_share = 0.05 };
        run_variant p ~ablation:"overpenalized" ~variant:"enabled(>2)" ~flows base;
        run_variant p ~ablation:"overpenalized" ~variant:"disabled" ~flows
          { base with Taq_config.overpenalize_drops = max_int };
        run_variant p ~ablation:"epoch" ~variant:"estimated" ~flows base;
        run_variant p ~ablation:"epoch" ~variant:"oracle" ~flows
          { base with Taq_config.epoch_source = Taq_config.Oracle rtt };
      ])
    levels

type pthresh_row = {
  pthresh : float;
  median_download : float;
  p90_download : float;
  completed : int;
  rejected_syns : int;
}

let run_pthresh_sweep (p : params) =
  List.map
    (fun pthresh ->
      let config =
        {
          (Common.taq_config ()) with
          Taq_config.admission = Some { Taq_config.pthresh };
        }
      in
      let env =
        Common.make_env ~queue:(Common.Taq config) ~capacity_bps ~buffer_pkts
          ~seed ()
      in
      let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
      let times = ref [] in
      let prng = Taq_util.Prng.create ~seed in
      let clients = Stdlib.max 4 (p.flows / 4) in
      for client = 0 to clients - 1 do
        let session =
          Taq_workload.Web_session.create ~net:env.Common.net ~tcp
            ~pool:client ~rtt ~max_conns:4
            ~on_fetch_done:(fun f ->
              if not (Float.is_nan f.Taq_workload.Web_session.finished_at)
              then
                times :=
                  (f.Taq_workload.Web_session.finished_at
                  -. f.Taq_workload.Web_session.requested_at)
                  :: !times)
            ()
        in
        for _ = 1 to 50 do
          Taq_workload.Web_session.request session ~size:15_000
        done;
        let at = Taq_util.Prng.float prng 30.0 in
        Taq_engine.Sim.schedule env.Common.sim ~at (fun () ->
            Taq_workload.Web_session.start session)
      done;
      Common.run env ~until:p.duration;
      let xs = Array.of_list !times in
      let rejected =
        match env.Common.taq with
        | Some t -> (Taq_core.Taq_disc.stats t).Taq_core.Taq_disc.admission_rejected
        | None -> 0
      in
      {
        pthresh;
        median_download =
          (if Array.length xs = 0 then nan else Taq_util.Stats.median xs);
        p90_download =
          (if Array.length xs = 0 then nan
           else Taq_util.Stats.percentile xs 90.0);
        completed = Array.length xs;
        rejected_syns = rejected;
      })
    [ 0.02; 0.05; 0.1; 0.2; 0.4 ]

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "ablation"; "variant"; "flows"; "jain_20s"; "utilization"; "loss_rate" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.ablation;
          r.variant;
          string_of_int r.flows;
          Printf.sprintf "%.3f" r.scores.jain_short;
          Printf.sprintf "%.3f" r.scores.utilization;
          Printf.sprintf "%.4f" r.scores.loss_rate;
        ])
    rows;
  Taq_util.Table.print table

let print_pthresh rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "pthresh"; "median_download_s"; "p90_download_s"; "completed"; "rejected_syns" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          Printf.sprintf "%.2f" r.pthresh;
          Printf.sprintf "%.2f" r.median_download;
          Printf.sprintf "%.2f" r.p90_download;
          string_of_int r.completed;
          string_of_int r.rejected_syns;
        ])
    rows;
  Taq_util.Table.print table

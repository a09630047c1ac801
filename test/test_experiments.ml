(* Tests for the experiment drivers: tiny-scale runs of each figure
   checking structure, invariants and the qualitative claims the full
   figures rest on. These are integration tests of the whole stack
   (engine + net + tcp + queues + metrics) through the same code paths
   the bench harness uses. *)

open Taq_experiments

(* --- Common ----------------------------------------------------------- *)

let test_flows_for_fair_share () =
  Alcotest.(check int) "1Mbps at 20k" 50
    (Common.flows_for_fair_share ~capacity_bps:1e6 ~fair_share_bps:20e3);
  Alcotest.(check int) "at least 1" 1
    (Common.flows_for_fair_share ~capacity_bps:1e3 ~fair_share_bps:1e9)

let test_buffer_for_rtts () =
  (* 1 Mbps * 0.2 s / (8 * 500 B) = 50 packets per RTT. *)
  Alcotest.(check int) "one rtt" 50
    (Common.buffer_for_rtts ~capacity_bps:1e6 ~rtt:0.2 ~rtts:1.0);
  Alcotest.(check int) "two rtts" 100
    (Common.buffer_for_rtts ~capacity_bps:1e6 ~rtt:0.2 ~rtts:2.0)

let test_env_queue_kinds () =
  List.iter
    (fun queue ->
      let env = Common.make_env ~queue ~capacity_bps:1e6 ~buffer_pkts:20 () in
      ignore (Common.spawn_long_flows env ~n:2 ~rtt:0.1 ());
      Common.run env ~until:5.0;
      Alcotest.(check bool)
        (Common.queue_name queue ^ " moves traffic")
        true
        (Common.utilization env > 0.1))
    [ Common.Droptail; Common.Red; Common.Sfq; Common.taq_marker ]

let test_env_taq_accessible () =
  let env =
    Common.make_env ~queue:Common.taq_marker ~capacity_bps:1e6 ~buffer_pkts:20 ()
  in
  Alcotest.(check bool) "taq disc exposed" true (env.Common.taq <> None)

let test_resize_keeps_marker_settings () =
  let sized q =
    match Common.resize ~capacity_bps:1e6 ~buffer_pkts:40 q with
    | Common.Taq c -> c
    | _ -> Alcotest.fail "resize must keep TAQ a TAQ queue"
  in
  Alcotest.(check bool)
    "plain marker: the evaluation config" true
    (sized Common.taq_marker
    = Common.taq_config ~capacity_bps:1e6 ~buffer_pkts:40 ());
  Alcotest.(check bool)
    "taq+ac with a guard keeps both" true
    (sized (Common.queue_of_disc ~guard_cap:7 "taq+ac")
    = Common.taq_config ~admission:true ~guard_cap:7 ~capacity_bps:1e6
        ~buffer_pkts:40 ());
  Alcotest.(check bool)
    "other disciplines untouched" true
    (Common.resize ~capacity_bps:1e6 ~buffer_pkts:40 Common.Red = Common.Red)

(* --- Fairness driver (figs 2/8/11) -------------------------------------- *)

let tiny_fairness queues =
  {
    Fig_fairness.quick with
    Fig_fairness.queues;
    capacities_bps = [ 400e3 ];
    fair_shares_bps = [ 10e3; 40e3 ];
    duration = 100.0;
  }

let test_fairness_row_structure () =
  let rows = Fig_fairness.run (tiny_fairness [ Common.Droptail ]) in
  Alcotest.(check int) "one row per point" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "jain in range" true
        (r.Fig_fairness.jain_short >= 0.0 && r.Fig_fairness.jain_short <= 1.0);
      Alcotest.(check bool) "utilization sane" true
        (r.Fig_fairness.utilization > 0.5 && r.Fig_fairness.utilization <= 1.01);
      Alcotest.(check bool) "flows derived" true (r.Fig_fairness.flows >= 10))
    rows

(* The driver resizes the marker it is given: a tracker cap far below
   the flow count must change the run (it used to be dropped). *)
let test_fairness_keeps_guard () =
  let run queue = Fig_fairness.run (tiny_fairness [ queue ]) in
  Alcotest.(check bool)
    "guarded taq runs differently from taq" true
    (run Common.taq_marker <> run (Common.queue_of_disc ~guard_cap:4 "taq"))

let test_fairness_improves_with_share () =
  (* More per-flow bandwidth means better short-term fairness — the
     monotone trend both Fig 2 and Fig 8 rest on. *)
  let rows = Fig_fairness.run (tiny_fairness [ Common.Droptail ]) in
  match rows with
  | [ low; high ] ->
      Alcotest.(check bool)
        (Printf.sprintf "jain(40k)=%.2f > jain(10k)=%.2f"
           high.Fig_fairness.jain_short low.Fig_fairness.jain_short)
        true
        (high.Fig_fairness.jain_short > low.Fig_fairness.jain_short)
  | _ -> Alcotest.fail "expected two rows"

let test_taq_beats_droptail_in_driver () =
  let dt = Fig_fairness.run (tiny_fairness [ Common.Droptail ]) in
  let taq = Fig_fairness.run (tiny_fairness [ Common.taq_marker ]) in
  let mean rows =
    Taq_util.Stats.mean
      (Array.of_list (List.map (fun r -> r.Fig_fairness.jain_short) rows))
  in
  Alcotest.(check bool)
    (Printf.sprintf "taq %.3f > dt %.3f" (mean taq) (mean dt))
    true
    (mean taq > mean dt)

(* --- fig3 ----------------------------------------------------------------- *)

let test_fig3_structure () =
  let p =
    {
      Fig3_buffer.quick with
      Fig3_buffer.fair_shares_pkts_per_rtt = [ 0.5 ];
      buffer_rtts = [ 1.0; 3.0 ];
      duration = 80.0;
      seeds = [ 1 ];
    }
  in
  let rows = Fig3_buffer.run p in
  Alcotest.(check int) "rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "delay consistent" true
        (Float.abs
           (r.Fig3_buffer.max_queue_delay_s
           -. (float_of_int (r.Fig3_buffer.buffer_pkts * 500 * 8) /. 1000e3))
        < 1e-9))
    rows;
  (* required_buffer picks the smallest qualifying buffer. *)
  let req = Fig3_buffer.required_buffer rows ~target_jain:0.0 in
  match req with
  | [ (_, Some b) ] -> Alcotest.(check (float 1e-9)) "smallest" 1.0 b
  | _ -> Alcotest.fail "expected one share with a buffer"

(* --- fig6 ------------------------------------------------------------------ *)

let test_fig6_bernoulli_matches_model_at_low_p () =
  let p =
    {
      Fig6_validation.quick with
      Fig6_validation.modes = [ Fig6_validation.Bernoulli ];
      variants = [ Taq_tcp.Tcp_config.Newreno ];
      loss_probabilities = [ 0.1 ];
      duration = 400.0;
    }
  in
  match Fig6_validation.run p with
  | [ row ] ->
      Alcotest.(check bool) "sampled" true (row.Fig6_validation.epochs > 1000);
      Alcotest.(check bool)
        (Printf.sprintf "L1=%.3f below 0.35" row.Fig6_validation.l1)
        true
        (row.Fig6_validation.l1 < 0.35);
      let sum = Array.fold_left ( +. ) 0.0 row.Fig6_validation.sim in
      Alcotest.(check (float 1e-6)) "sim distribution sums to 1" 1.0 sum
  | _ -> Alcotest.fail "expected one row"

let test_fig6_silence_grows_with_p () =
  let p =
    {
      Fig6_validation.quick with
      Fig6_validation.modes = [ Fig6_validation.Bernoulli ];
      variants = [ Taq_tcp.Tcp_config.Newreno ];
      loss_probabilities = [ 0.05; 0.3 ];
      duration = 300.0;
    }
  in
  match Fig6_validation.run p with
  | [ low; high ] ->
      Alcotest.(check bool) "silence mass grows" true
        (high.Fig6_validation.sim.(0) > low.Fig6_validation.sim.(0))
  | _ -> Alcotest.fail "expected two rows"

(* --- fig9 ------------------------------------------------------------------- *)

let test_fig9_taq_reduces_stalls () =
  let p =
    {
      Fig9_evolution.quick with
      Fig9_evolution.flows = 80;
      duration = 200.0;
      warmup = 50.0;
    }
  in
  match Fig9_evolution.run p with
  | [ dt; taq ] ->
      Alcotest.(check string) "first is droptail" "droptail" dt.Fig9_evolution.queue;
      Alcotest.(check bool)
        (Printf.sprintf "stalled: taq %.3f < dt %.3f"
           taq.Fig9_evolution.stalled_fraction dt.Fig9_evolution.stalled_fraction)
        true
        (taq.Fig9_evolution.stalled_fraction < dt.Fig9_evolution.stalled_fraction);
      Alcotest.(check bool) "maintained: taq higher" true
        (taq.Fig9_evolution.maintained_fraction
        > dt.Fig9_evolution.maintained_fraction)
  | _ -> Alcotest.fail "expected two results"

(* --- fig10 ------------------------------------------------------------------- *)

let test_fig10_short_flows_complete_and_scale () =
  let p =
    {
      Fig10_short_flows.quick with
      Fig10_short_flows.queues = [ Common.taq_marker ];
      long_flows = 20;
      short_flow_lengths = [ 5; 40 ];
      warmup = 20.0;
      spacing = 10.0;
      timeout = 120.0;
    }
  in
  let rows = Fig10_short_flows.run p in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  match rows with
  | [ small; large ] ->
      Alcotest.(check bool) "small completed" true
        (not (Float.is_nan small.Fig10_short_flows.download_time));
      Alcotest.(check bool) "large completed" true
        (not (Float.is_nan large.Fig10_short_flows.download_time));
      Alcotest.(check bool) "larger takes longer" true
        (large.Fig10_short_flows.download_time
        > small.Fig10_short_flows.download_time)
  | _ -> Alcotest.fail "unreachable"

(* --- fig12 -------------------------------------------------------------------- *)

let test_fig12_produces_cdfs () =
  let p =
    {
      Fig12_admission.quick with
      Fig12_admission.clients = 10;
      duration = 120.0;
    }
  in
  let results = Fig12_admission.run p in
  Alcotest.(check int) "4 bucket results" 4 (List.length results);
  (* Both queues must complete some small objects in this mild setup. *)
  List.iter
    (fun r ->
      if r.Fig12_admission.bucket = "10-20KB" then
        Alcotest.(check bool)
          (r.Fig12_admission.queue ^ " completed small objects")
          true
          (r.Fig12_admission.n > 10))
    results

(* --- fig1 --------------------------------------------------------------------- *)

let test_fig1_spread () =
  let p =
    {
      Fig1_scatter.quick with
      Fig1_scatter.trace =
        {
          Taq_workload.Trace.default_params with
          Taq_workload.Trace.clients = 20;
          duration = 200.0;
          mean_think = 30.0;
        };
      duration = 200.0;
      capacity_bps = 400e3;
    }
  in
  let r = Fig1_scatter.run p in
  Alcotest.(check bool) "some completions" true (r.Fig1_scatter.completed > 20);
  Alcotest.(check bool) "buckets formed" true (List.length r.Fig1_scatter.rows >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "spread %.2f orders > 1" r.Fig1_scatter.spread_orders)
    true
    (r.Fig1_scatter.spread_orders > 1.0)

(* Replaying under taq+ac must run admission control: run_trace uses
   the queue it is given, TAQ config included. *)
let test_fig1_replay_admission () =
  let trace =
    Taq_workload.Trace.generate
      ~params:
        {
          Taq_workload.Trace.default_params with
          Taq_workload.Trace.clients = 20;
          duration = 600.0;
        }
      ~seed:101 ()
  in
  let p =
    {
      Fig1_scatter.default with
      Fig1_scatter.capacity_bps = 600e3;
      duration = 300.0;
    }
  in
  let replay disc =
    let buffer_pkts =
      Common.buffer_for_rtts ~capacity_bps:p.Fig1_scatter.capacity_bps
        ~rtt:p.Fig1_scatter.rtt ~rtts:1.0
    in
    Fig1_scatter.run_trace p ~trace
      ~queue:
        (Common.queue_of_disc ~capacity_bps:p.Fig1_scatter.capacity_bps
           ~buffer_pkts disc)
  in
  Alcotest.(check bool)
    "taq+ac replays differently from taq" true
    (replay "taq" <> replay "taq+ac")

(* --- hangs --------------------------------------------------------------------- *)

let test_hangs_contention_increases_hangs () =
  let p =
    {
      Hangs_experiment.quick with
      Hangs_experiment.queues = [ Common.Droptail ];
      user_counts = [ 20; 80 ];
      conns_per_user = [ 4 ];
      duration = 120.0;
    }
  in
  match Hangs_experiment.run p with
  | [ low; high ] ->
      Alcotest.(check bool)
        (Printf.sprintf "hangs grow with users: %.2f <= %.2f"
           low.Hangs_experiment.frac_hang_20s high.Hangs_experiment.frac_hang_20s)
        true
        (low.Hangs_experiment.frac_hang_20s
        <= high.Hangs_experiment.frac_hang_20s +. 1e-9)
  | _ -> Alcotest.fail "expected two rows"

(* --- ablations ------------------------------------------------------------------ *)

let test_ablations_structure () =
  let p = { Ablations.quick with Ablations.flows = 40; duration = 80.0 } in
  let rows = Ablations.run_queue_ablations p in
  (* 7 variants at 2 contention levels each. *)
  Alcotest.(check int) "14 rows" 14 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Ablations.ablation ^ "/" ^ r.Ablations.variant ^ " jain in range")
        true
        (r.Ablations.jain_short >= 0.0 && r.Ablations.jain_short <= 1.0))
    rows

(* --- registry ------------------------------------------------------------------- *)

let test_registry_complete () =
  let expected =
    [ "fig1"; "fig2"; "fig3"; "codel-fig3"; "hangs"; "fig6"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "cubic"; "http"; "aqm"; "flood"; "ablate";
      "hybrid-validate"; "mega" ]
  in
  Alcotest.(check (list string)) "all figure targets present" expected
    Registry.names;
  List.iter
    (fun name ->
      match Registry.find name with
      | Some t -> Alcotest.(check string) "find returns the target" name t.Registry.name
      | None -> Alcotest.failf "missing %s" name)
    expected;
  Alcotest.(check bool) "unknown is None" true (Registry.find "nope" = None)

let () =
  Alcotest.run "taq_experiments"
    [
      ( "common",
        [
          Alcotest.test_case "flows for share" `Quick test_flows_for_fair_share;
          Alcotest.test_case "buffer for rtts" `Quick test_buffer_for_rtts;
          Alcotest.test_case "queue kinds" `Quick test_env_queue_kinds;
          Alcotest.test_case "taq accessible" `Quick test_env_taq_accessible;
          Alcotest.test_case "resize keeps marker settings" `Quick
            test_resize_keeps_marker_settings;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "row structure" `Quick test_fairness_row_structure;
          Alcotest.test_case "keeps the marker's guard" `Slow
            test_fairness_keeps_guard;
          Alcotest.test_case "share monotone" `Slow test_fairness_improves_with_share;
          Alcotest.test_case "taq beats dt" `Slow test_taq_beats_droptail_in_driver;
        ] );
      ("fig3", [ Alcotest.test_case "structure" `Quick test_fig3_structure ]);
      ( "fig6",
        [
          Alcotest.test_case "model match at low p" `Slow
            test_fig6_bernoulli_matches_model_at_low_p;
          Alcotest.test_case "silence grows" `Slow test_fig6_silence_grows_with_p;
        ] );
      ("fig9", [ Alcotest.test_case "taq reduces stalls" `Slow test_fig9_taq_reduces_stalls ]);
      ("fig10", [ Alcotest.test_case "short flows" `Slow test_fig10_short_flows_complete_and_scale ]);
      ("fig12", [ Alcotest.test_case "cdfs" `Slow test_fig12_produces_cdfs ]);
      ( "fig1",
        [
          Alcotest.test_case "spread" `Slow test_fig1_spread;
          Alcotest.test_case "replay honours admission" `Slow
            test_fig1_replay_admission;
        ] );
      ("hangs", [ Alcotest.test_case "contention" `Slow test_hangs_contention_increases_hangs ]);
      ("ablations", [ Alcotest.test_case "structure" `Slow test_ablations_structure ]);
      ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete ] );
    ]

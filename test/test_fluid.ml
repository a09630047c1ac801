(* Tests for taq_fluid: the mean-field model's conservation ledger and
   state bounds, determinism of the integrator and of whole hybrid
   environments, the streaming mega cohort generator (shard-count
   invariance and the constant-memory contract), and the headline
   property — a hybrid run agrees with its packet-level reference on
   foreground fairness within the validation tolerance. *)

module Model = Taq_fluid.Model
module Source = Taq_fluid.Source
module Mega = Taq_workload.Mega
module Common = Taq_experiments.Common
module Hybrid_validate = Taq_experiments.Hybrid_validate

let qcheck_rand = Qcheck_seed.rand ~file:"test_fluid"

let mid_params ?(n_flows = 200) () =
  Model.make_params ~n_flows ~capacity_bps:600e3 ~buffer_bytes:15_000
    ~rtt_prop:0.2 ~pkt_bytes:500 ~dt:0.02 ()

(* Deterministic but non-trivial input schedule: service oscillates
   around the capacity, loss probability ramps and resets. *)
let drive t ~steps =
  let p = Model.params t in
  for i = 0 to steps - 1 do
    let service_bps =
      p.Model.capacity_bps *. (0.3 +. 0.6 *. float_of_int (i mod 7) /. 6.0)
    in
    let p_loss = 0.02 *. float_of_int (i mod 11) in
    ignore (Model.step t ~service_bps ~p_loss)
  done

(* --- Model: ledger, bounds, determinism ----------------------------------- *)

let check_conservation t =
  let arrived = Model.arrived_bytes t in
  let accounted =
    Model.served_bytes t +. Model.dropped_bytes t +. Model.backlog_bytes t
  in
  let eps = 1e-6 *. Float.max 1.0 arrived in
  Alcotest.(check bool)
    (Printf.sprintf "conservation: %.6f vs %.6f" arrived accounted)
    true
    (Float.abs (arrived -. accounted) <= eps)

let test_model_conservation () =
  let t = Model.create (mid_params ()) in
  drive t ~steps:2_000;
  check_conservation t;
  Alcotest.(check bool) "bytes arrived" true (Model.arrived_bytes t > 0.0)

let test_model_bounds () =
  let p = mid_params () in
  let t = Model.create p in
  for i = 0 to 4_999 do
    let service_bps = if i mod 3 = 0 then 0.0 else p.Model.capacity_bps in
    let p_loss = if i mod 5 = 0 then 1.0 else 0.0 in
    ignore (Model.step t ~service_bps ~p_loss);
    let w = Model.window t and q = Model.backlog_bytes t in
    if w < Model.w_min -. 1e-9 || w > Model.wmax +. 1e-9 then
      Alcotest.failf "window out of bounds at step %d: %g" i w;
    if q < 0.0 || q > float_of_int p.Model.buffer_bytes +. 1e-6 then
      Alcotest.failf "backlog out of bounds at step %d: %g" i q;
    let a = Model.active_fraction t in
    if a <= 0.0 || a > 1.0 then
      Alcotest.failf "active fraction out of bounds at step %d: %g" i a
  done

let test_model_deterministic () =
  let run () =
    let t = Model.create (mid_params ()) in
    drive t ~steps:1_000;
    (Model.arrived_bytes t, Model.served_bytes t, Model.dropped_bytes t,
     Model.window t, Model.backlog_bytes t, Model.active_fraction t)
  in
  Alcotest.(check bool) "bitwise-identical trajectories" true (run () = run ())

(* Under hostile inputs (the coupling layer measures them from a live
   sim, so anything goes), the state must stay in bounds and the
   ledger must balance. *)
let prop_model_in_bounds =
  QCheck.Test.make ~name:"fluid state in bounds under arbitrary inputs"
    ~count:50
    QCheck.(
      small_list (pair (float_bound_exclusive 2e6) (float_bound_exclusive 1.5)))
    (fun inputs ->
      let p = mid_params ~n_flows:64 () in
      let t = Model.create p in
      List.iter
        (fun (service_bps, p_loss) ->
          ignore (Model.step t ~service_bps ~p_loss))
        inputs;
      let w = Model.window t and q = Model.backlog_bytes t in
      let arrived = Model.arrived_bytes t in
      let accounted =
        Model.served_bytes t +. Model.dropped_bytes t +. Model.backlog_bytes t
      in
      w >= Model.w_min -. 1e-9
      && w <= Model.wmax +. 1e-9
      && q >= 0.0
      && q <= float_of_int p.Model.buffer_bytes +. 1e-6
      && Float.abs (arrived -. accounted) <= 1e-6 *. Float.max 1.0 arrived)

(* --- Mega generator: shard invariance and constant memory ----------------- *)

let test_mega_shard_invariance () =
  let total = 100_000 and seed = 5 and base_rtt = 0.2 in
  let whole =
    Mega.summarize ~seed ~base_rtt (Mega.shard ~index:0 ~n_shards:1 ~total)
  in
  let sharded n_shards =
    List.fold_left Mega.merge Mega.empty
      (List.init n_shards (fun index ->
           Mega.summarize ~seed ~base_rtt (Mega.shard ~index ~n_shards ~total)))
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "%d shards match 1 shard" n)
        (Mega.summary_to_string whole)
        (Mega.summary_to_string (sharded n)))
    [ 2; 3; 7 ]

(* The constant-memory contract: streaming a 400k-flow cohort must not
   retain the cohort. A materialised array of that many flow records
   would hold >= 2M words; the bound below leaves room for GC noise
   while catching any accidental accumulation. *)
let test_mega_constant_memory () =
  Gc.compact ();
  let before = Gc.stat () in
  let s =
    Mega.summarize ~seed:11 ~base_rtt:0.2
      (Mega.shard ~index:0 ~n_shards:1 ~total:400_000)
  in
  Alcotest.(check int) "covered the population" 400_000 s.Mega.n;
  Gc.compact ();
  let after = Gc.stat () in
  let live_delta = after.Gc.live_words - before.Gc.live_words in
  let peak_delta = after.Gc.top_heap_words - before.Gc.top_heap_words in
  Alcotest.(check bool)
    (Printf.sprintf "live words retained (%d)" live_delta)
    true
    (live_delta < 50_000);
  Alcotest.(check bool)
    (Printf.sprintf "peak heap growth (%d words)" peak_delta)
    true
    (peak_delta < 1_000_000)

(* --- Hybrid environments --------------------------------------------------- *)

let hybrid_fingerprint () =
  let fluid_params =
    Model.make_params ~n_flows:32 ~capacity_bps:600e3 ~buffer_bytes:15_000
      ~rtt_prop:0.2 ~pkt_bytes:Common.pkt_bytes ~dt:0.02 ()
  in
  let env =
    Common.make_env
      ~backend:(Common.Hybrid fluid_params)
      ~queue:Common.Droptail ~capacity_bps:600e3 ~buffer_pkts:30 ~seed:3 ()
  in
  let ids = Common.spawn_long_flows env ~n:6 ~rtt:0.2 ~rtt_jitter:0.1 () in
  Common.run env ~until:30.0;
  let source = Option.get env.Common.fluid in
  ( Source.report source,
    Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids,
    Common.measured_loss_rate env )

let test_hybrid_deterministic () =
  let a = hybrid_fingerprint () and b = hybrid_fingerprint () in
  Alcotest.(check bool) "identical hybrid runs" true (a = b)

(* The headline property: on mid-size configurations the hybrid
   backend reproduces the packet-level reference's foreground fairness
   and drop rate within the validation tolerance. Runs the same
   scenario pair as the hybrid-validate registry target, over a small
   random family of cohort sizes and seeds. *)
let prop_hybrid_matches_packet =
  QCheck.Test.make ~name:"hybrid vs packet-level fairness within tolerance"
    ~count:3
    QCheck.(pair (int_range 24 40) (int_range 1 1000))
    (fun (bg_flows, seed) ->
      let p =
        {
          Hybrid_validate.quick with
          Hybrid_validate.bg_flows;
          seed;
          jain_tol = 0.25;
          drop_rel_tol = 0.5;
          drop_floor = 0.03;
        }
      in
      let rows = Hybrid_validate.run p in
      List.for_all
        (fun r ->
          if not r.Hybrid_validate.ok then
            QCheck.Test.fail_reportf "bg=%d seed=%d: %s" bg_flows seed
              (String.concat "; " r.Hybrid_validate.problems);
          r.Hybrid_validate.ok)
        rows)

let () =
  Alcotest.run "taq_fluid"
    [
      ( "model",
        [
          Alcotest.test_case "conservation ledger" `Quick
            test_model_conservation;
          Alcotest.test_case "state bounds" `Quick test_model_bounds;
          Alcotest.test_case "deterministic" `Quick test_model_deterministic;
          QCheck_alcotest.to_alcotest ~rand:qcheck_rand prop_model_in_bounds;
        ] );
      ( "mega",
        [
          Alcotest.test_case "shard invariance" `Quick
            test_mega_shard_invariance;
          Alcotest.test_case "constant memory" `Quick
            test_mega_constant_memory;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "deterministic" `Quick test_hybrid_deterministic;
          QCheck_alcotest.to_alcotest ~rand:qcheck_rand
            prop_hybrid_matches_packet;
        ] );
    ]

(* Tests for taq_resil: the --resil parameter spec (defaults,
   overrides, canonical rendering, rejects), the recovery monitor's
   semantics against real dumbbell runs (baseline freeze, Recovered /
   No_recovery / Not_applicable), seed determinism of the resilience
   rows, and the monitor's read-only contract — attaching one never
   changes the simulated trajectory. *)

module Policy = Taq_resil.Policy
module Monitor = Taq_resil.Monitor
module Common = Taq_experiments.Common
module Plan = Taq_fault.Plan
module Run_spec = Taq_experiments.Run_spec
module Check = Taq_check.Check
module Obs = Taq_obs.Obs
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet

(* --- Policy: spec parsing ---------------------------------------------------- *)

let params_ok s =
  match Policy.params_of_spec s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg

let test_policy_default () =
  Alcotest.(check bool)
    "empty spec is the default policy" true
    (params_ok "" = Policy.default);
  let d = Policy.default in
  Alcotest.(check (float 1e-9)) "default period" 0.5 d.Policy.period;
  Alcotest.(check int) "default sustain" 3 d.Policy.sustain

let test_policy_overrides () =
  let p = params_ok "period=0.25,sustain=5" in
  Alcotest.(check (float 1e-9)) "period overridden" 0.25 p.Policy.period;
  Alcotest.(check int) "sustain overridden" 5 p.Policy.sustain;
  Alcotest.(check (float 1e-9))
    "untouched keys keep their defaults" Policy.default.Policy.eps_jain
    p.Policy.eps_jain;
  let q =
    params_ok
      "period=1,sustain=2,eps-jain=0.1,eps-drop=0.05,eps-occ-frac=0.25,eps-occ-floor=5"
  in
  Alcotest.(check (float 1e-9)) "eps-jain" 0.1 q.Policy.eps_jain;
  Alcotest.(check (float 1e-9)) "eps-drop" 0.05 q.Policy.eps_drop;
  Alcotest.(check (float 1e-9)) "eps-occ-frac" 0.25 q.Policy.eps_occ_frac;
  Alcotest.(check (float 1e-9)) "eps-occ-floor" 5.0 q.Policy.eps_occ_floor

let test_policy_canonical () =
  (* The canonical rendering is sweep-key vocabulary: parsing it back
     must reproduce the exact parameters, and rendering is total. *)
  List.iter
    (fun spec ->
      let p = params_ok spec in
      let s = Policy.params_to_string p in
      Alcotest.(check bool)
        (Printf.sprintf "canonical %S re-parses to itself" s)
        true
        (Policy.params_of_spec s = Ok p))
    [ ""; "period=0.25"; "sustain=7,eps-occ-floor=1.5"; "eps-jain=0.01" ]

let test_policy_rejects () =
  List.iter
    (fun s ->
      match Policy.params_of_spec s with
      | Ok _ -> Alcotest.failf "spec %S should have been rejected" s
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error message non-empty" s)
            true
            (String.length msg > 0))
    [
      "period=0" (* non-positive period *);
      "period=-1" (* negative period *);
      "period=nan" (* NaN *);
      "period=inf" (* non-finite *);
      "sustain=0" (* sustain must be >= 1 *);
      "sustain=2.5" (* sustain is an integer *);
      "eps-jain=-0.1" (* negative tolerance *);
      "eps-drop=nan" (* NaN tolerance *);
      "wibble=3" (* unknown key *);
      "period" (* not key=value *);
    ]

(* --- Monitor: semantics over real runs --------------------------------------- *)

(* A small long-flow dumbbell under [plan], monitored with [params];
   returns the finalized rows. Everything derives from [seed]. *)
let monitored_run ?(params = Policy.default) ?(queue = Common.Droptail)
    ?(seed = 1) ~plan ~until () =
  let capacity_bps = 400e3 in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0 in
  let env =
    Common.make_env ~faults:plan ~resil:params ~queue ~capacity_bps
      ~buffer_pkts ~slice:1.0 ~seed ()
  in
  ignore (Common.spawn_long_flows env ~n:8 ~rtt:0.1 ());
  Common.run env ~until;
  match Common.resil_rows env with
  | Some rows -> rows
  | None -> Alcotest.fail "monitor requested but absent from env"

let plan_of s =
  match Plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" s msg

let row rows metric =
  match List.find_opt (fun r -> r.Monitor.metric = metric) rows with
  | Some r -> r
  | None -> Alcotest.failf "no %s row" metric

let test_monitor_row_shape () =
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:30.0 () in
  Alcotest.(check int) "one row per metric"
    (Array.length Monitor.metric_names)
    (List.length rows);
  List.iteri
    (fun i r ->
      Alcotest.(check string) "metric order" Monitor.metric_names.(i)
        r.Monitor.metric)
    rows

let test_monitor_baseline_and_recovery () =
  (* 8 s of clean steady state, a 2 s flap, 20 s of slack: the
     baseline must be frozen and finite, fairness must visibly deviate
     during the outage (every flow stalls), and every metric must
     recover within the generous slack. *)
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:30.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline finite" r.Monitor.metric)
        true
        (Float.is_finite r.Monitor.baseline);
      Alcotest.(check bool)
        (Printf.sprintf "%s peak deviation measured" r.Monitor.metric)
        true
        (Float.is_finite r.Monitor.peak_dev && r.Monitor.peak_dev >= 0.0);
      match r.Monitor.recovery with
      | Monitor.Recovered s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s recovery time sane" r.Monitor.metric)
            true
            (s >= 0.0 && s <= 20.0)
      | Monitor.No_recovery | Monitor.Not_applicable ->
          Alcotest.failf "%s did not recover after the flap (%s)"
            r.Monitor.metric
            (Monitor.recovery_to_string r.Monitor.recovery))
    rows;
  let jain = row rows "jain" in
  Alcotest.(check bool)
    "jain baseline is a Jain index" true
    (jain.Monitor.baseline > 0.0 && jain.Monitor.baseline <= 1.0)

let test_monitor_no_recovery () =
  (* The run ends the instant the plan clears: no post-fault sample
     can ever sustain, so every metric must report No_recovery rather
     than a fabricated time. *)
  let rows = monitored_run ~plan:(plan_of "flap@8+2") ~until:10.5 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports no_recovery" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.No_recovery))
    rows

let test_monitor_empty_plan () =
  let rows = monitored_run ~plan:[] ~until:10.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not applicable without faults" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.Not_applicable);
      Alcotest.(check string) "rendered as a dash" "-"
        (Monitor.recovery_to_string r.Monitor.recovery))
    rows

let test_monitor_stationary_loss () =
  (* Stationary loss never clears, so time-to-recover is undefined —
     Not_applicable, not No_recovery. *)
  let rows = monitored_run ~plan:(plan_of "loss:p=0.02") ~until:15.0 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s n/a under stationary loss" r.Monitor.metric)
        true
        (r.Monitor.recovery = Monitor.Not_applicable))
    rows

let test_monitor_deterministic () =
  let lines () =
    List.map Monitor.row_line
      (monitored_run ~queue:Common.taq_marker
         ~plan:(plan_of "brownout@5+4:frac=0.5") ~until:25.0 ~seed:11 ())
  in
  Alcotest.(check (list string))
    "equal seeds, byte-identical resilience rows" (lines ()) (lines ())

let test_monitor_read_only () =
  (* The read-only contract: a run with the monitor attached must
     leave the packet trajectory byte-identical to the same seeded run
     without it. Compare bottleneck counters, the strictest cheap
     witness of the trajectory. *)
  let stats with_resil =
    let capacity_bps = 400e3 in
    let buffer_pkts =
      Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0
    in
    let env =
      if with_resil then
        Common.make_env ~faults:(plan_of "flap@4+1") ~resil:Policy.default
          ~queue:Common.taq_marker ~capacity_bps ~buffer_pkts ~seed:9 ()
      else
        Common.make_env ~faults:(plan_of "flap@4+1") ~queue:Common.taq_marker
          ~capacity_bps ~buffer_pkts ~seed:9 ()
    in
    ignore (Common.spawn_long_flows env ~n:6 ~rtt:0.1 ());
    Common.run env ~until:20.0;
    let s = Taq_net.Link.stats (Taq_net.Dumbbell.link env.Common.net) in
    ( s.Taq_net.Link.offered,
      s.Taq_net.Link.transmitted,
      s.Taq_net.Link.dropped,
      s.Taq_net.Link.bytes_transmitted )
  in
  Alcotest.(check bool)
    "trajectory identical with and without the monitor" true
    (stats true = stats false)

let test_monitor_row_line () =
  let r =
    {
      Monitor.metric = "jain";
      baseline = 0.875;
      peak_dev = 0.25;
      recovery = Monitor.Recovered 3.5;
    }
  in
  Alcotest.(check string)
    "default prefix"
    "resil metric=jain baseline=0.875000 peak_dev=0.250000 recover_s=3.50"
    (Monitor.row_line r);
  Alcotest.(check string)
    "custom prefix + nan as dash"
    "x metric=occupancy baseline=- peak_dev=- recover_s=no_recovery"
    (Monitor.row_line ~prefix:"x "
       {
         Monitor.metric = "occupancy";
         baseline = Float.nan;
         peak_dev = Float.nan;
         recovery = Monitor.No_recovery;
       })

(* --- Run spec (last: the install is process-global) --------------------- *)

(* The write-once spec is the only process-wide configuration, and
   only Common.make_env reads it: a simulator, TAQ disc and flow
   tracker built directly stay off however much the spec enables. *)
let test_run_spec_write_once () =
  Alcotest.(check bool)
    "nothing installed: all off" true
    (Run_spec.current () = Run_spec.off);
  let spec =
    match Run_spec.of_flags ~check:"all" ~obs:"counters" ~resil:"" () with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Run_spec.install spec;
  Alcotest.(check bool) "installed spec is current" true
    (Run_spec.current () = spec);
  Alcotest.check_raises "second install rejected"
    (Invalid_argument "Run_spec.install: a run spec is already installed")
    (fun () -> Run_spec.install Run_spec.off);
  Obs.reset_root ();
  let sim = Sim.create () in
  let config =
    Taq_core.Taq_config.default ~capacity_pkts:20 ~capacity_bps:1e6
  in
  let taq = Taq_core.Taq_disc.create ~sim ~config () in
  let tracker =
    Taq_core.Flow_tracker.create ~config ~now:(fun () -> Sim.now sim) ()
  in
  let alloc = Packet.alloc () in
  let packet i =
    Packet.make ~alloc ~flow:(i mod 4) ~kind:Packet.Data ~seq:(i / 4)
      ~size:500 ~sent_at:0.0 ()
  in
  for i = 0 to 19 do
    ignore ((Taq_core.Taq_disc.disc taq).Taq_net.Disc.enqueue (packet i));
    ignore (Taq_core.Flow_tracker.observe_data tracker (packet i));
    Sim.schedule sim ~at:(float_of_int i) ignore
  done;
  Sim.run ~until:30.0 sim;
  Alcotest.(check bool)
    "simulator checker off" false
    (List.exists (Check.on (Sim.check sim)) Check.all_groups);
  Alcotest.(check bool) "simulator obs off" false (Obs.enabled (Sim.obs sim));
  Alcotest.(check (list (pair string int)))
    "nothing registered with the root collector" []
    (Obs.root_snapshot ()).Obs.counters

let () =
  Alcotest.run "taq_resil"
    [
      ( "policy",
        [
          Alcotest.test_case "defaults" `Quick test_policy_default;
          Alcotest.test_case "overrides" `Quick test_policy_overrides;
          Alcotest.test_case "canonical rendering" `Quick test_policy_canonical;
          Alcotest.test_case "rejects invalid" `Quick test_policy_rejects;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "row shape" `Quick test_monitor_row_shape;
          Alcotest.test_case "baseline + recovery after flap" `Quick
            test_monitor_baseline_and_recovery;
          Alcotest.test_case "no_recovery when run ends first" `Quick
            test_monitor_no_recovery;
          Alcotest.test_case "empty plan not applicable" `Quick
            test_monitor_empty_plan;
          Alcotest.test_case "stationary loss not applicable" `Quick
            test_monitor_stationary_loss;
          Alcotest.test_case "deterministic rows" `Quick
            test_monitor_deterministic;
          Alcotest.test_case "read-only (trajectory unchanged)" `Quick
            test_monitor_read_only;
          Alcotest.test_case "row_line rendering" `Quick test_monitor_row_line;
        ] );
      ( "run spec",
        [ Alcotest.test_case "write-once" `Quick test_run_spec_write_once ] );
    ]

(* Tests for taq_fault: the plan DSL (parse / canonical render /
   validation / horizon), the scenario registry, the injector's
   determinism and per-kind behaviour (flap, corruption, duplication,
   ack delay, middlebox restart), the Fault_drill recovery assertions,
   and a qcheck property: any random finite-horizon plan leaves the
   simulation terminating, byte-conserving under the Net invariant
   group, and with every finite flow completed (no perpetual RTO
   backoff). *)

module Plan = Taq_fault.Plan
module Scenarios = Taq_fault.Scenarios
module Injector = Taq_fault.Injector
module Common = Taq_experiments.Common
module Fault_drill = Taq_experiments.Fault_drill
module Matrix = Taq_experiments.Matrix
module Run_spec = Taq_experiments.Run_spec
module Task_key = Taq_experiments.Task_key
module Check = Taq_check.Check

let ok_plan s =
  match Plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S rejected: %s" s msg

(* --- Plan: parsing ---------------------------------------------------------- *)

let test_plan_empty () =
  Alcotest.(check bool) "empty string parses" true (Plan.of_string "" = Ok []);
  Alcotest.(check bool) "empty plan is empty" true (Plan.is_empty (ok_plan ""));
  Alcotest.(check bool)
    "non-empty plan is not empty" false
    (Plan.is_empty (ok_plan "flap@1+2"))

let test_plan_roundtrip () =
  List.iter
    (fun s ->
      let p = ok_plan s in
      let rendered = Plan.to_string p in
      match Plan.of_string rendered with
      | Ok p' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %S" s)
            true (p = p')
      | Error msg ->
          Alcotest.failf "canonical %S of %S rejected: %s" rendered s msg)
    [
      "flap@1+2";
      "corrupt@5-20:p=0.05";
      "dup@5-12:p=0.25";
      "reorder@5-15:p=0.3,delay=0.05";
      "ackdelay@5-8:delay=0.15";
      "restart@8";
      "loss:p=0.02";
      "flood@5+10:rate=400,kind=syn";
      "flood@5+8:rate=200,kind=pool";
      "flood@2+3:rate=150";
      "brownout@8+6:frac=0.5";
      "brownout@0.5+2:frac=0.9";
      "jitter@8+6:ms=40";
      "jitter@2+1:ms=0.5";
      "flap@1+2;corrupt@5-20:p=0.05;restart@10";
      "flap@1+2;flood@5+10:rate=400,kind=data";
      "brownout@3+4:frac=0.25;jitter@10+5:ms=20;flap@18+1";
      " flap@1+2 ; restart@3 ";
    ]

let test_plan_rejects () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S should have been rejected" s
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error message non-empty" s)
            true
            (String.length msg > 0))
    [
      "corrupt@5-20:p=1.5" (* probability out of range *);
      "corrupt@20-5:p=0.1" (* empty window *);
      "corrupt@5-5:p=0.1" (* empty window *);
      "flap@-1+2" (* negative time *);
      "flap@1+0" (* non-positive duration *);
      "reorder@5-15:p=0.3,delay=0" (* non-positive delay *);
      "wobble@3" (* unknown clause *);
      "loss:p=nope" (* unparsable number *);
      "flood@5+10" (* rate is mandatory *);
      "flood@5+10:rate=0" (* non-positive rate *);
      "flood@5+10:rate=-4" (* negative rate *);
      "flood@5+0:rate=100" (* non-positive duration *);
      "flood@5+10:rate=100,kind=weird" (* unknown flood kind *);
      "flood@5+10:rate=100,burst=3" (* unknown key *);
      "flood@5+10:rate=nan" (* NaN rate *);
      "loss:p=nan" (* NaN probability *);
      "flap@nan+2" (* NaN time *);
      "brownout@8+6" (* frac is mandatory *);
      "brownout@8+6:frac=0" (* frac must be in (0,1) *);
      "brownout@8+6:frac=1" (* frac=1 is not a brownout *);
      "brownout@8+6:frac=1.5" (* frac out of range *);
      "brownout@8+6:frac=-0.5" (* negative frac *);
      "brownout@8+0:frac=0.5" (* non-positive duration *);
      "brownout@8+6:frac=0.5,kind=syn" (* unknown key *);
      "jitter@8+6" (* ms is mandatory *);
      "jitter@8+6:ms=0" (* non-positive jitter *);
      "jitter@8+6:ms=-3" (* negative jitter *);
      "jitter@8+6:ms=nan" (* NaN jitter *);
      "jitter@8+0:ms=40" (* non-positive duration *);
    ];
  (* Empty clauses (stray/trailing semicolons) are tolerated, not
     errors: convenient for shell-assembled plan strings. *)
  Alcotest.(check bool)
    "stray semicolons tolerated" true
    (Plan.of_string "flap@1+2;;restart@3;" = Plan.of_string "flap@1+2;restart@3")

let test_plan_horizon () =
  let close msg a b = Alcotest.(check (float 1e-9)) msg a b in
  close "flap horizon" 3.0 (Plan.horizon (ok_plan "flap@1+2"));
  close "window horizon" 20.0 (Plan.horizon (ok_plan "corrupt@5-20:p=0.1"));
  close "reorder horizon includes holdback" 15.05
    (Plan.horizon (ok_plan "reorder@5-15:p=0.3,delay=0.05"));
  close "restart horizon" 8.0 (Plan.horizon (ok_plan "restart@8"));
  close "flood horizon" 15.0 (Plan.horizon (ok_plan "flood@5+10:rate=100"));
  close "empty plan horizon" 0.0 (Plan.horizon (ok_plan ""));
  Alcotest.(check bool)
    "stationary loss never ends" true
    (Plan.horizon (ok_plan "loss:p=0.01") = infinity);
  close "brownout horizon" 14.0 (Plan.horizon (ok_plan "brownout@8+6:frac=0.5"));
  close "jitter horizon includes holdback" 14.04
    (Plan.horizon (ok_plan "jitter@8+6:ms=40"))

let test_plan_first_start () =
  let close msg a b = Alcotest.(check (float 1e-9)) msg a b in
  close "earliest clause wins" 1.0
    (Plan.first_start (ok_plan "restart@10;flap@1+2;brownout@8+6:frac=0.5"));
  close "stationary loss starts at zero" 0.0
    (Plan.first_start (ok_plan "flap@5+1;loss:p=0.01"));
  Alcotest.(check bool)
    "empty plan never starts" true
    (Plan.first_start (ok_plan "") = infinity)

let test_plan_check_within () =
  let ok plan run_until =
    match Plan.check_within ~run_until (ok_plan plan) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "plan %S rejected for d=%g: %s" plan run_until msg
  in
  let rejected plan run_until =
    match Plan.check_within ~run_until (ok_plan plan) with
    | Ok () ->
        Alcotest.failf "plan %S should not fit inside d=%g" plan run_until
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error message is actionable" plan)
          true
          (String.length msg > 0)
  in
  ok "flap@1+2" 10.0;
  ok "brownout@8+6:frac=0.5;jitter@8+6:ms=40" 9.0;
  ok "loss:p=0.01" 10.0 (* stationary clauses always inject *);
  ok "" 10.0;
  rejected "flap@10+2" 10.0 (* starts exactly at the horizon *);
  rejected "flap@50+2" 30.0;
  rejected "flap@1+2;restart@40" 30.0 (* one dead clause poisons the plan *);
  rejected "jitter@30+5:ms=10" 12.0

let test_plan_middlebox_only () =
  Alcotest.(check bool)
    "restart-only plan" true
    (Plan.middlebox_only (ok_plan "restart@8;restart@16"));
  Alcotest.(check bool)
    "mixed plan" false
    (Plan.middlebox_only (ok_plan "flap@1+2;restart@8"));
  Alcotest.(check bool) "empty plan" false (Plan.middlebox_only (ok_plan ""))

let test_plan_has_flood () =
  Alcotest.(check bool) "flood plan" true
    (Plan.has_flood (ok_plan "flood@5+10:rate=100"));
  Alcotest.(check bool) "mixed plan" true
    (Plan.has_flood (ok_plan "flap@1+2;flood@5+10:rate=100"));
  Alcotest.(check bool) "flood-free plan" false
    (Plan.has_flood (ok_plan "flap@1+2;restart@8"));
  Alcotest.(check bool) "empty plan" false (Plan.has_flood (ok_plan ""))

(* --- Scenarios -------------------------------------------------------------- *)

let test_scenarios_registry () =
  Alcotest.(check bool)
    "registry non-trivial" true
    (List.length Scenarios.all >= 6);
  let names = Scenarios.names in
  Alcotest.(check int)
    "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "scenario %s has a plan" s.Scenarios.name)
        false
        (Plan.is_empty s.Scenarios.plan);
      Alcotest.(check bool)
        (Printf.sprintf "scenario %s described" s.Scenarios.name)
        true
        (String.length s.Scenarios.description > 0))
    Scenarios.all

let test_scenarios_resolution () =
  let flap =
    match Scenarios.find "flap-slow-start" with
    | Some s -> s.Scenarios.plan
    | None -> Alcotest.fail "flap-slow-start not registered"
  in
  Alcotest.(check bool)
    "bare name resolves" true
    (Scenarios.plan_of_string "flap-slow-start" = Ok flap);
  Alcotest.(check bool)
    "scenario: prefix resolves" true
    (Scenarios.plan_of_string "scenario:flap-slow-start" = Ok flap);
  Alcotest.(check bool)
    "plan expression falls through" true
    (Scenarios.plan_of_string "flap@1+2" = Ok (ok_plan "flap@1+2"));
  Alcotest.(check bool)
    "unknown scenario is an error" true
    (Result.is_error (Scenarios.plan_of_string "scenario:nope"))

(* --- Link flap (unit) ------------------------------------------------------- *)

let test_link_flap_pauses_transmitter () =
  let sim = Taq_engine.Sim.create () in
  let delivered = ref [] in
  let link =
    Taq_net.Link.create ~sim ~capacity_bps:400e3 ~prop_delay:0.01
      ~disc:(Taq_queueing.Droptail.create ~capacity_pkts:50)
      ~deliver:(fun p ->
        delivered := (p.Taq_net.Packet.seq, Taq_engine.Sim.now sim) :: !delivered)
      ()
  in
  let alloc = Taq_net.Packet.alloc () in
  let pkt seq =
    Taq_net.Packet.make ~alloc ~flow:1 ~kind:Taq_net.Packet.Data ~seq ~size:500
      ~sent_at:(Taq_engine.Sim.now sim) ()
  in
  Alcotest.(check bool) "link starts up" true (Taq_net.Link.is_up link);
  Taq_net.Link.set_up link false;
  Taq_net.Link.send link (pkt 0);
  Taq_net.Link.send link (pkt 1);
  Taq_engine.Sim.run ~until:5.0 sim;
  Alcotest.(check int) "nothing delivered while down" 0
    (List.length !delivered);
  Alcotest.(check int) "packets queued, not dropped" 2
    (Taq_net.Link.queue_length link);
  (* Bring the link back at t=5 and drain. *)
  Taq_engine.Sim.schedule sim ~at:5.0 (fun () ->
      Taq_net.Link.set_up link true);
  Taq_engine.Sim.run ~until:10.0 sim;
  Alcotest.(check int) "both delivered after recovery" 2
    (List.length !delivered);
  List.iter
    (fun (_, at) ->
      Alcotest.(check bool) "delivery after the flap window" true (at >= 5.0))
    !delivered;
  let stats = Taq_net.Link.stats link in
  Alcotest.(check int) "conservation: all transmitted" 2
    stats.Taq_net.Link.transmitted

(* --- Injector: per-kind behaviour ------------------------------------------- *)

let drill ?(scenario = "test") ?flows ?segments ?duration ~plan ~queue ?seed ()
    =
  Fault_drill.run ~scenario ~plan ~queue ?flows ?segments ?duration ?seed ()

let test_injector_deterministic () =
  let plan = ok_plan "corrupt@2-20:p=0.1;dup@3-10:p=0.1" in
  let run () = drill ~plan ~queue:Common.Droptail ~seed:7 () in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, identical outcome" true (a = b);
  Alcotest.(check bool) "injection happened" true (a.Fault_drill.injected > 0);
  let c = drill ~plan ~queue:Common.Droptail ~seed:8 () in
  Alcotest.(check bool)
    "different seed, different fault sequence" true
    (a.Fault_drill.injected <> c.Fault_drill.injected)

let test_injector_duplicate_all () =
  (* p=1 duplication: every forward data packet in the window is
     duplicated, so the counter must be large and the flows must still
     complete (duplicates are absorbed by TCP). *)
  let o =
    drill ~plan:(ok_plan "dup@1-30:p=1") ~queue:Common.Droptail ~flows:4
      ~segments:100 ()
  in
  Alcotest.(check bool) "flows complete" true o.Fault_drill.ok;
  Alcotest.(check bool)
    "every windowed packet duplicated" true
    (o.Fault_drill.injected >= 100)

let test_injector_ack_delay () =
  let o =
    drill ~plan:(ok_plan "ackdelay@2-8:delay=0.12") ~queue:Common.Droptail ()
  in
  Alcotest.(check bool) "drill ok" true o.Fault_drill.ok;
  Alcotest.(check bool) "acks were delayed" true (o.Fault_drill.injected > 0)

let test_taq_restart_relearns () =
  (* Direct unit of the control-plane state loss: run TAQ under load,
     restart mid-run, and require the tracker to be demonstrably
     emptied and then repopulated by the surviving flows. *)
  let capacity_bps = 400e3 in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0 in
  let env =
    Common.make_env ~faults:[]
      ~queue:(Common.Taq (Common.taq_config ~capacity_bps ~buffer_pkts ()))
      ~capacity_bps ~buffer_pkts ~seed:3 ()
  in
  let t = Option.get env.Common.taq in
  ignore (Common.spawn_long_flows env ~n:6 ~rtt:0.1 ());
  Common.run env ~until:5.0;
  let before =
    Taq_core.Flow_tracker.tracked_flow_count (Taq_core.Taq_disc.tracker t)
  in
  Alcotest.(check bool) "flows tracked before restart" true (before > 0);
  Taq_core.Taq_disc.restart t;
  Alcotest.(check int) "state demonstrably lost" 0
    (Taq_core.Flow_tracker.tracked_flow_count (Taq_core.Taq_disc.tracker t));
  Common.run env ~until:10.0;
  let after =
    Taq_core.Flow_tracker.tracked_flow_count (Taq_core.Taq_disc.tracker t)
  in
  Alcotest.(check bool) "flows re-learned after restart" true (after > 0);
  let st = Taq_core.Taq_disc.stats t in
  Alcotest.(check int) "restart counted" 1 st.Taq_core.Taq_disc.restarts

(* --- Injector: stationary loss ---------------------------------------------- *)

(* The [loss:p=P] clause replaced the old External_loss wrapper; these
   pin down the behaviours its tests guaranteed: empirical rate,
   conservation (every packet either delivered or counted dropped) and
   seed determinism of the drop sequence. *)

let loss_run ~seed ~p ~n =
  let sim = Taq_engine.Sim.create () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"t" ~capacity_pkts:(n + 1) ()
  in
  let net = Taq_net.Dumbbell.create ~sim ~capacity_bps:1e9 ~disc () in
  let delivered = ref 0 in
  let pattern = Buffer.create n in
  Taq_net.Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.01
    ~deliver_fwd:(fun _ ->
      incr delivered;
      Buffer.add_char pattern '.')
    ~deliver_rev:(fun _ -> ());
  let inj =
    Injector.install ~net
      ~prng:(Taq_util.Prng.create ~seed)
      [ Plan.Loss { p } ]
  in
  let alloc = Taq_net.Dumbbell.packet_alloc net in
  for seq = 0 to n - 1 do
    Taq_net.Dumbbell.send_fwd net
      (Taq_net.Packet.make ~alloc ~flow:1 ~kind:Taq_net.Packet.Data ~seq
         ~size:500 ~sent_at:0.0 ())
  done;
  Taq_engine.Sim.run ~until:1e6 sim;
  (!delivered, (Injector.stats inj).corrupted, Buffer.contents pattern)

let test_loss_plan_rate () =
  let n = 50_000 in
  let delivered, dropped, _ = loss_run ~seed:55 ~p:0.25 ~n in
  let rate = float_of_int dropped /. float_of_int n in
  Alcotest.(check bool) "close to 0.25" true (Float.abs (rate -. 0.25) < 0.01);
  Alcotest.(check int) "conservation" n (delivered + dropped)

let test_loss_plan_zero () =
  let delivered, dropped, _ = loss_run ~seed:56 ~p:0.0 ~n:1000 in
  Alcotest.(check int) "all pass at p=0" 1000 delivered;
  Alcotest.(check int) "nothing counted dropped" 0 dropped

let test_loss_plan_seed_deterministic () =
  let pat seed =
    let _, _, p = loss_run ~seed ~p:0.3 ~n:200 in
    p
  in
  Alcotest.(check string)
    "equal seeds, identical delivery sequence" (pat 77) (pat 77);
  Alcotest.(check bool)
    "distinct seeds, distinct sequences" true
    (pat 77 <> pat 78)

(* --- Fault_drill over the registry ------------------------------------------ *)

let test_drill_registry_scenario name queue () =
  let s =
    match Scenarios.find name with
    | Some s -> s
    | None -> Alcotest.failf "scenario %s not registered" name
  in
  let o = Fault_drill.run ~scenario:name ~plan:s.Scenarios.plan ~queue () in
  if not o.Fault_drill.ok then
    Alcotest.failf "drill %s/%s failed: %s" name o.Fault_drill.queue
      (String.concat "; " o.Fault_drill.problems)

let test_drill_restart_proves_relearning () =
  let s = Option.get (Scenarios.find "middlebox-restart-under-load") in
  let o =
    Fault_drill.run ~scenario:s.Scenarios.name ~plan:s.Scenarios.plan
      ~queue:Common.taq_marker ()
  in
  Alcotest.(check bool) "drill ok" true o.Fault_drill.ok;
  Alcotest.(check int) "both restarts applied" 2 o.Fault_drill.restarts;
  Alcotest.(check bool)
    "state was live before the restart" true
    (o.Fault_drill.tracked_before_restart > 0);
  Alcotest.(check bool)
    "flows re-classified after the restart" true
    (o.Fault_drill.tracked_at_end > 0)

let test_drill_flood_arc () =
  (* The headline robustness drill: the SYN-churn flood must drive the
     guard through the whole graceful-degradation arc with bounded
     tracker state, and TAQ must still hold per-flow state at the end
     (class scheduling observably restored). *)
  let s = Option.get (Scenarios.find "syn-flood-churn") in
  let o =
    Fault_drill.run ~scenario:s.Scenarios.name ~plan:s.Scenarios.plan
      ~queue:Common.taq_marker ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "drill ok (%s)" (String.concat "; " o.Fault_drill.problems))
    true o.Fault_drill.ok;
  Alcotest.(check bool) "guard tripped" true (o.Fault_drill.degraded_entered > 0);
  Alcotest.(check bool) "guard released" true
    (o.Fault_drill.degraded_exited >= o.Fault_drill.degraded_entered);
  Alcotest.(check bool) "tracker bounded by cap" true
    (o.Fault_drill.peak_tracked <= o.Fault_drill.tracker_cap);
  Alcotest.(check string) "back to normal" "normal" o.Fault_drill.guard_mode;
  Alcotest.(check bool) "per-flow state re-learned" true
    (o.Fault_drill.tracked_at_end > 0);
  Alcotest.(check int) "all flows completed through the flood"
    o.Fault_drill.flows o.Fault_drill.completed

let test_drill_jobs_invariant () =
  (* The drill fans out over Pool; equal seeds must give identical
     outcomes at jobs=1 and jobs=4. *)
  let s = Option.get (Scenarios.find "flap-repeat") in
  let tasks () =
    List.map
      (fun q ->
        Taq_harness.Task.make
          ~key:(Printf.sprintf "drill/%s" (Common.queue_name q))
          (fun ~seed ->
            Fault_drill.run ~scenario:s.Scenarios.name ~plan:s.Scenarios.plan
              ~queue:q ~seed ()))
      [ Common.Droptail; Common.taq_marker ]
  in
  let seq = Taq_harness.Pool.run ~jobs:1 (tasks ()) in
  let par = Taq_harness.Pool.run ~jobs:4 (tasks ()) in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "jobs=1 and jobs=4 byte-identical" true
        (Taq_harness.Pool.value_exn a = Taq_harness.Pool.value_exn b))
    seq par

(* --- property: finite plan => termination, conservation, completion --------- *)

let gen_fault =
  QCheck.Gen.(
    oneof
      [
        (let* at = float_range 0.5 10.0 in
         let* d = float_range 0.2 2.0 in
         return (Plan.Flap { at; down_for = d }));
        (let* a = float_range 0.5 10.0 in
         let* len = float_range 0.5 8.0 in
         let* p = float_range 0.01 0.2 in
         return (Plan.Corrupt { w = { Plan.from_ = a; until = a +. len }; p }));
        (let* a = float_range 0.5 10.0 in
         let* len = float_range 0.5 8.0 in
         let* p = float_range 0.05 0.5 in
         return (Plan.Duplicate { w = { Plan.from_ = a; until = a +. len }; p }));
        (let* a = float_range 0.5 10.0 in
         let* len = float_range 0.5 8.0 in
         let* p = float_range 0.05 0.4 in
         let* delay = float_range 0.01 0.1 in
         return
           (Plan.Reorder { w = { Plan.from_ = a; until = a +. len }; p; delay }));
        (let* a = float_range 0.5 10.0 in
         let* len = float_range 0.5 4.0 in
         let* delay = float_range 0.02 0.2 in
         return
           (Plan.Ack_delay { w = { Plan.from_ = a; until = a +. len }; delay }));
        (let* at = float_range 0.5 15.0 in
         return (Plan.Restart { at }));
        (let* at = float_range 0.5 10.0 in
         let* dur = float_range 0.5 4.0 in
         let* frac = float_range 0.1 0.9 in
         return (Plan.Brownout { at; dur; frac }));
        (let* at = float_range 0.5 10.0 in
         let* dur = float_range 0.5 4.0 in
         let* ms = float_range 1.0 60.0 in
         return (Plan.Jitter { at; dur; ms }));
      ])

let gen_plan = QCheck.Gen.(list_size (int_range 1 4) gen_fault)

(* The canonical rendering is the sweep cache-key vocabulary, so it
   must be a fixed point: parsing a rendered plan and re-rendering it
   reproduces the exact string (else equal plans could hash apart). *)
let prop_plan_canonical_roundtrip =
  QCheck.Test.make ~name:"plan: canonical text is a parse fixed point"
    ~count:200
    (QCheck.make ~print:Plan.to_string gen_plan)
    (fun plan ->
      let s = Plan.to_string plan in
      match Plan.of_string s with
      | Ok p' -> Plan.to_string p' = s
      | Error _ -> false)

let prop_finite_plan_recovers =
  QCheck.Test.make ~name:"fault: finite plan => conservation + completion"
    ~count:12
    (QCheck.make ~print:(fun p -> Plan.to_string p) gen_plan)
    (fun plan ->
      (* Fresh Raise-mode checker on the Net group: byte conservation
         at the bottleneck is enforced throughout, and any violation
         raises out of the property. *)
      let capacity_bps = 400e3 in
      let buffer_pkts =
        Common.buffer_for_rtts ~capacity_bps ~rtt:0.1 ~rtts:1.0
      in
      let check = Check.create ~mode:Check.Raise ~groups:[ Check.Net ] () in
      let env =
        Common.make_env ~check ~faults:plan
          ~queue:(Common.Taq (Common.taq_config ~capacity_bps ~buffer_pkts ()))
          ~capacity_bps ~buffer_pkts ~seed:5 ()
      in
      let flows = 4 and segments = 100 in
      let completed = ref 0 in
      for _ = 1 to flows do
        ignore
          (Common.spawn_finite_flow env ~segments ~rtt:0.1
             ~on_complete:(fun _ -> incr completed)
             ())
      done;
      (* Horizon is bounded by the generators (<= 18s + holdback);
         120 s of simulated slack is enough for any RTO backoff ladder
         the plan can cause. The call returning at all is the
         termination half of the property. *)
      Common.run env ~until:120.0;
      !completed = flows && Check.total_violations check = 0)

(* --- property: task keys byte-equal to the reference formats ------------ *)

(* Keys are cache keys, journal keys and seed sources at once, so the
   Task_key printer must reproduce the formats older result dirs were
   filled with (Task_key_ref) over every run-spec component it
   prints: fault plans (empty ones included), guard caps, resilience
   parameters and hybrid backends, at arbitrary point coordinates. *)
let gen_resil_params =
  QCheck.Gen.(
    let* period = float_range 0.05 5.0 in
    let* sustain = int_range 1 10 in
    let* eps_jain = float_range 0.001 0.5 in
    let* eps_drop = float_range 0.001 0.5 in
    let* eps_occ_frac = float_range 0.01 2.0 in
    let* eps_occ_floor = float_range 0.5 50.0 in
    return
      {
        Taq_resil.Policy.period;
        sustain;
        eps_jain;
        eps_drop;
        eps_occ_frac;
        eps_occ_floor;
      })

let gen_backend =
  QCheck.Gen.(
    frequency
      [
        (1, return Common.Packet);
        ( 1,
          let* n_flows = int_range 1 100_000 in
          let* rtt_prop = float_range 0.01 1.0 in
          let* dt = float_range 0.001 0.5 in
          let* capacity_bps = float_range 1e5 1e10 in
          let* buffer_bytes = int_range 500 10_000_000 in
          return
            (Common.Hybrid
               (Taq_fluid.Model.make_params ~rtt_prop
                  ~pkt_bytes:Common.pkt_bytes ~dt ~n_flows ~capacity_bps
                  ~buffer_bytes ())) );
      ])

let gen_sweep_keys =
  QCheck.Gen.(
    let* queue = oneofl Common.disc_names in
    let* capacity = float_range 1e4 3e9 in
    let* fair_share = float_range 1e3 1e6 in
    let* rtt = float_range 0.001 2.0 in
    let* duration = float_range 1.0 20_000.0 in
    let* buffer_rtts = float_range 0.05 8.0 in
    let* rep = int_range 0 20 in
    let* fault_plan =
      frequency
        [
          (1, return None);
          (1, return (Some []));
          (3, map Option.some gen_plan);
        ]
    in
    let* guard = opt (int_range 1 100_000) in
    let* resil_params = opt gen_resil_params in
    let* backend = gen_backend in
    let spec =
      { Run_spec.off with faults = fault_plan; resil = resil_params }
    in
    return
      ( Task_key_ref.sweep ~queue ~capacity ~fair_share ~rtt ~duration
          ~buffer_rtts ~rep ~fault_plan ~guard ~resil_params ~backend,
        Task_key.sweep ~queue ~capacity ~fair_share ~rtt ~duration
          ~buffer_rtts ~rep ?guard_cap:guard ~backend spec ))

let gen_matrix_keys =
  QCheck.Gen.(
    let* disc = oneofl Common.disc_names in
    let* tcp = oneofl Matrix.tcp_names in
    let* workload = oneofl Matrix.workload_names in
    let* fault = oneofl Matrix.fault_names in
    let* guard = opt (int_range 1 100_000) in
    return
      ( Task_key_ref.matrix ~disc ~tcp ~workload ~fault ~guard,
        Task_key.matrix ~disc ~tcp ~workload ~fault ?guard_cap:guard () ))

let gen_drill_keys =
  QCheck.Gen.(
    let* scenario = oneofl Scenarios.names in
    let* queue =
      oneofl (List.filter (fun d -> d <> "taq+ac") Common.disc_names)
    in
    return
      ( Task_key_ref.faults ~scenario ~queue:(Common.queue_of_disc queue),
        Task_key.faults ~scenario ~queue ))

let prop_task_keys_match_reference =
  QCheck.Test.make ~name:"task keys: byte-equal to the reference formats"
    ~count:300
    (QCheck.make
       ~print:(fun keys ->
         String.concat "\n"
           (List.map (fun (r, k) -> Printf.sprintf "ref %s\nkey %s" r k) keys))
       QCheck.Gen.(
         let* sweep = gen_sweep_keys in
         let* cell = gen_matrix_keys in
         let* drill = gen_drill_keys in
         return [ sweep; cell; drill ]))
    (List.for_all (fun (reference, key) -> reference = key))

(* faults --queues: taq+ac would only repeat the taq drill. *)
let test_drill_rejects_taq_ac () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected" name)
        true
        (Result.is_error (Fault_drill.disc_of_string name)))
    [ "taq+ac"; "taq-ac"; "bogus" ];
  Alcotest.(check (result string string))
    "taq drilled as taq" (Ok "taq") (Fault_drill.disc_of_string "taq");
  Alcotest.(check (result string string))
    "aliases resolve" (Ok "droptail")
    (Fault_drill.disc_of_string "dt")

(* --- property: any finite flood => bounded state + bounded degradation ------- *)

let prop_flood_guard_arc =
  (* Rates and durations are constrained so the flood always overflows
     the drill's 256-entry cap (rate * dur >> cap): the guard must then
     trip, keep the tracker bounded, and be back to Normal by the end
     of the run — for every flood kind. The drill's Guard-group
     invariants (cap bound, dwell floors, conservation across mode
     switches) run under whatever check groups the installed run spec
     enables (none here). *)
  QCheck.Test.make ~name:"flood: cap bounded + guard back to normal" ~count:6
    (QCheck.make
       ~print:(fun (rate, dur, kind) ->
         Printf.sprintf "flood@5+%g:rate=%g,kind=%s" dur rate kind)
       QCheck.Gen.(
         let* rate = float_range 150.0 450.0 in
         let* dur = float_range 4.0 10.0 in
         let* kind = oneofl [ "syn"; "data"; "pool" ] in
         return (rate, dur, kind)))
    (fun (rate, dur, kind) ->
      let plan =
        ok_plan (Printf.sprintf "flood@5+%g:rate=%g,kind=%s" dur rate kind)
      in
      let o =
        Fault_drill.run ~scenario:"prop-flood" ~plan ~queue:Common.taq_marker ()
      in
      o.Fault_drill.ok
      && o.Fault_drill.degraded_entered > 0
      && o.Fault_drill.peak_tracked <= o.Fault_drill.tracker_cap
      && o.Fault_drill.guard_mode = "normal")

(* --- suite ------------------------------------------------------------------ *)

let () =
  Alcotest.run "taq_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "empty" `Quick test_plan_empty;
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_plan_rejects;
          Alcotest.test_case "horizon" `Quick test_plan_horizon;
          Alcotest.test_case "first_start" `Quick test_plan_first_start;
          Alcotest.test_case "check_within" `Quick test_plan_check_within;
          Alcotest.test_case "middlebox_only" `Quick test_plan_middlebox_only;
          Alcotest.test_case "has_flood" `Quick test_plan_has_flood;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "registry well-formed" `Quick
            test_scenarios_registry;
          Alcotest.test_case "name resolution" `Quick
            test_scenarios_resolution;
        ] );
      ( "injector",
        [
          Alcotest.test_case "link flap pauses transmitter" `Quick
            test_link_flap_pauses_transmitter;
          Alcotest.test_case "deterministic from seed" `Quick
            test_injector_deterministic;
          Alcotest.test_case "duplication p=1" `Quick
            test_injector_duplicate_all;
          Alcotest.test_case "ack delay" `Quick test_injector_ack_delay;
          Alcotest.test_case "taq restart re-learns" `Quick
            test_taq_restart_relearns;
          Alcotest.test_case "stationary loss rate" `Quick test_loss_plan_rate;
          Alcotest.test_case "stationary loss p=0" `Quick test_loss_plan_zero;
          Alcotest.test_case "stationary loss seeded" `Quick
            test_loss_plan_seed_deterministic;
        ] );
      ( "drill",
        [
          Alcotest.test_case "flap-slow-start/droptail" `Quick
            (test_drill_registry_scenario "flap-slow-start" Common.Droptail);
          Alcotest.test_case "flap-slow-start/taq" `Quick
            (test_drill_registry_scenario "flap-slow-start" Common.taq_marker);
          Alcotest.test_case "corruption-storm/taq" `Quick
            (test_drill_registry_scenario "corruption-storm" Common.taq_marker);
          Alcotest.test_case "brownout-half-rate/droptail" `Quick
            (test_drill_registry_scenario "brownout-half-rate" Common.Droptail);
          Alcotest.test_case "brownout-half-rate/taq" `Quick
            (test_drill_registry_scenario "brownout-half-rate" Common.taq_marker);
          Alcotest.test_case "jitter-storm/taq" `Quick
            (test_drill_registry_scenario "jitter-storm" Common.taq_marker);
          Alcotest.test_case "restart proves re-learning" `Quick
            test_drill_restart_proves_relearning;
          Alcotest.test_case "flood arc" `Quick test_drill_flood_arc;
          Alcotest.test_case "jobs=1 == jobs=4" `Quick
            test_drill_jobs_invariant;
          Alcotest.test_case "taq+ac rejected" `Quick
            test_drill_rejects_taq_ac;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_fault")
            prop_plan_canonical_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_fault")
            prop_finite_plan_recovers;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_fault")
            prop_flood_guard_arc;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_fault")
            prop_task_keys_match_reference;
        ] );
    ]

(* Tests for the observability layer (lib/obs):

   - Obs.t unit tests: the off instance is inert, counters/gauges/
     labeled counters accumulate and snapshot (zeros dropped, names
     sorted), snapshots merge (sum counters, max gauges);
   - policy parsing for --obs specs;
   - the hand-rolled JSON printer/parser (integral round-trip, escape
     handling, strict trailing-garbage rejection);
   - the trace ring: overflow keeps the most recent window, and the
     Chrome trace_event JSON round-trips through the in-repo parser;
   - behaviour neutrality: a simulation run with counters (and tracing)
     on produces byte-for-byte the same metrics as with Obs.off;
   - aggregation determinism: the merged per-task counters of a mini
     sweep over a Harness.Pool are identical at jobs=1 and jobs=4.

   The registry targets' counters are pinned exactly by test_counters. *)

module Obs = Taq_obs.Obs
module Trace = Taq_obs.Trace
module Json = Taq_obs.Json
module Common = Taq_experiments.Common
module Harness = Taq_harness

(* --- Obs.t unit tests --------------------------------------------------- *)

let test_off_is_inert () =
  Obs.labeled Obs.off "x" 3;
  Obs.labeled_gauge_max Obs.off "g" 9;
  Alcotest.(check bool) "not enabled" false (Obs.enabled Obs.off);
  Alcotest.(check bool) "not tracing" false (Obs.tracing Obs.off);
  let snap = Obs.snapshot Obs.off in
  Alcotest.(check (list (pair string int))) "no counters" [] snap.Obs.counters;
  Alcotest.(check (list (pair string int))) "no gauges" [] snap.Obs.gauges

let test_counters_and_snapshot () =
  let o = Obs.create () in
  let push = Obs.labeled_ref o "sim.heap_push" in
  incr push;
  incr push;
  Obs.labeled o "link.bytes_transmitted" 500;
  Obs.labeled_gauge_max o "sim.heap_max_depth" 3;
  Obs.labeled_gauge_max o "sim.heap_max_depth" 7;
  Obs.labeled_gauge_max o "sim.heap_max_depth" 5;
  Obs.labeled o "disc.x.drop" 2;
  Obs.labeled o "disc.x.drop" 1;
  Obs.labeled o "zeroed" 0;
  let snap = Obs.snapshot o in
  Alcotest.(check int) "counter through its cell" 2
    (Obs.counter_value snap "sim.heap_push");
  Alcotest.(check int) "add" 500
    (Obs.counter_value snap "link.bytes_transmitted");
  Alcotest.(check int) "labeled" 3 (Obs.counter_value snap "disc.x.drop");
  Alcotest.(check int) "absent is 0" 0 (Obs.counter_value snap "nope");
  Alcotest.(check int) "gauge keeps max" 7
    (Obs.gauge_value snap "sim.heap_max_depth");
  (* zeros dropped, names sorted *)
  let names = List.map fst snap.Obs.counters in
  Alcotest.(check (list string))
    "sorted, zeros dropped"
    [ "disc.x.drop"; "link.bytes_transmitted"; "sim.heap_push" ]
    names

let test_merge () =
  let a = Obs.create () and b = Obs.create () in
  Obs.labeled a "sim.heap_push" 1;
  Obs.labeled b "sim.heap_push" 4;
  Obs.labeled_gauge_max a "sim.heap_max_depth" 3;
  Obs.labeled_gauge_max b "sim.heap_max_depth" 9;
  Obs.labeled a "only.a" 1;
  Obs.labeled b "only.b" 2;
  let m = Obs.merge_all [ Obs.snapshot a; Obs.snapshot b ] in
  Alcotest.(check int) "counters sum" 5 (Obs.counter_value m "sim.heap_push");
  Alcotest.(check int) "gauges max" 9
    (Obs.gauge_value m "sim.heap_max_depth");
  Alcotest.(check int) "a-only kept" 1 (Obs.counter_value m "only.a");
  Alcotest.(check int) "b-only kept" 2 (Obs.counter_value m "only.b");
  let empty = Obs.merge_all [] in
  Alcotest.(check (list (pair string int)))
    "merge_all [] empty" [] empty.Obs.counters

let test_labeled_ref_disabled () =
  (* The pre-resolved ref for a disabled instance must be a dummy that
     never shows up in a snapshot. *)
  let r = Obs.labeled_ref Obs.off "hot" in
  incr r;
  let g = Obs.labeled_gauge_ref Obs.off "deep" in
  g := 9;
  Alcotest.(check (list (pair string int)))
    "dummy ref invisible" [] (Obs.snapshot Obs.off).Obs.counters;
  Alcotest.(check (list (pair string int)))
    "dummy gauge invisible" [] (Obs.snapshot Obs.off).Obs.gauges

let test_policy_of_spec () =
  let ok spec =
    match Obs.policy_of_spec spec with
    | Ok p -> p
    | Error e -> Alcotest.fail (spec ^ ": " ^ e)
  in
  let p = ok "" in
  Alcotest.(check bool) "empty means counters" true p.Obs.policy_counters;
  Alcotest.(check bool) "empty has no trace" true (p.Obs.policy_trace = None);
  let p = ok "counters" in
  Alcotest.(check bool) "counters" true p.Obs.policy_counters;
  let p = ok "trace" in
  Alcotest.(check bool) "trace implies counters" true p.Obs.policy_counters;
  Alcotest.(check (option string))
    "default trace path"
    (Some "taq.trace.json")
    p.Obs.policy_trace;
  let p = ok "trace:/tmp/x.json" in
  Alcotest.(check (option string))
    "explicit trace path" (Some "/tmp/x.json") p.Obs.policy_trace;
  let p = ok "off" in
  Alcotest.(check bool) "off" false p.Obs.policy_counters;
  (match Obs.policy_of_spec "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ());
  let p = ok "counters, trace:/t.json" in
  Alcotest.(check bool) "combined counters" true p.Obs.policy_counters;
  Alcotest.(check (option string))
    "combined trace" (Some "/t.json") p.Obs.policy_trace

(* --- JSON ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Num 3.0);
        ("b", Json.Str "he \"said\"\n\\tab");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num (-0.5) ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round-trips" true (doc = doc')
  | Error e -> Alcotest.fail e

let test_json_integral_exact () =
  (* Counter values must round-trip exactly: integral floats print
     without a decimal point. *)
  let n = 123456789012.0 in
  let s = Json.to_string (Json.Num n) in
  Alcotest.(check string) "no decimal point" "123456789012" s;
  match Json.of_string s with
  | Ok (Json.Num n') -> Alcotest.(check bool) "exact" true (n = n')
  | Ok _ | Error _ -> Alcotest.fail "reparse failed"

let test_json_strict () =
  (match Json.of_string "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  (match Json.of_string "{\"a\": }" with
  | Ok _ -> Alcotest.fail "missing value accepted"
  | Error _ -> ());
  match Json.of_string "  [1, 2, 3]  " with
  | Ok (Json.List [ _; _; _ ]) -> ()
  | Ok _ | Error _ -> Alcotest.fail "whitespace-framed list rejected"

(* --- trace ring ---------------------------------------------------------- *)

let ev i =
  {
    Trace.name = Printf.sprintf "e%d" i;
    cat = "test";
    ph = (if i mod 2 = 0 then Trace.Span else Trace.Instant);
    ts_us = float_of_int i;
    dur_us = (if i mod 2 = 0 then 1.5 else 0.0);
    flow = i;
  }

let test_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 5 do
    Trace.add t (ev i)
  done;
  Alcotest.(check int) "count capped" 4 (Trace.count t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list string))
    "keeps most recent, oldest first"
    [ "e2"; "e3"; "e4"; "e5" ]
    (List.map (fun e -> e.Trace.name) (Trace.events t))

let test_trace_json_roundtrip () =
  let evs = List.init 7 ev in
  let j = Trace.to_json evs in
  (match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' -> (
      match Trace.of_json j' with
      | Ok evs' -> Alcotest.(check bool) "events round-trip" true (evs = evs')
      | Error e -> Alcotest.fail e));
  match Json.member "traceEvents" j with
  | Some (Json.List l) ->
      Alcotest.(check int) "one JSON event each" 7 (List.length l)
  | Some _ | None -> Alcotest.fail "no traceEvents member"

(* --- behaviour neutrality ------------------------------------------------ *)

let run_env ~obs queue =
  let env =
    Common.make_env ~obs ~queue ~capacity_bps:200e3 ~buffer_pkts:20 ~seed:5 ()
  in
  let ids = Common.spawn_long_flows env ~n:4 ~rtt:0.1 ~rtt_jitter:0.1 () in
  Common.run env ~until:10.0;
  (env, ids)

let metrics ~obs queue =
  let env, ids = run_env ~obs queue in
  Printf.sprintf "jain=%.9f util=%.9f loss=%.9f"
    (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids)
    (Common.utilization env)
    (Common.measured_loss_rate env)

let test_obs_does_not_perturb queue () =
  let plain = metrics ~obs:Obs.off queue in
  let counted = metrics ~obs:(Obs.create ()) queue in
  let traced = metrics ~obs:(Obs.create ~tracing:true ()) queue in
  Alcotest.(check string) "counters do not perturb" plain counted;
  Alcotest.(check string) "tracing does not perturb" plain traced

let test_counters_consistent () =
  (* The per-layer counters must tell one coherent story. *)
  let o = Obs.create () in
  let env, _ = run_env ~obs:o Common.Droptail in
  let s = Obs.snapshot o in
  let c = Obs.counter_value s in
  Alcotest.(check bool) "events executed" true (c "sim.events_executed" > 0);
  (* The env's one link counts exactly what its own stats hold. *)
  let st = Taq_net.Link.stats (Taq_net.Dumbbell.link env.Common.net) in
  Alcotest.(check int) "link.offered" st.Taq_net.Link.offered (c "link.offered");
  Alcotest.(check int) "link.transmitted" st.Taq_net.Link.transmitted
    (c "link.transmitted");
  Alcotest.(check int) "link.dropped" st.Taq_net.Link.dropped (c "link.dropped");
  Alcotest.(check int) "link.bytes_transmitted" st.Taq_net.Link.bytes_transmitted
    (c "link.bytes_transmitted");
  (* The scheduler counters balance against the calendar after the run
     stops at its horizon, with the same-instant lane drained. *)
  let pending = Taq_engine.Sim.pending_events env.Common.sim in
  Alcotest.(check int) "scheduled = executed + skipped + pending"
    (c "sim.events_scheduled")
    (c "sim.events_executed" + c "sim.events_skipped" + pending);
  Alcotest.(check int) "heap pushes - pops = pending"
    (c "sim.heap_push" - c "sim.heap_pop")
    pending;
  (* Conservation: every offered packet was transmitted, dropped, or is
     still queued — up to one more may be in flight on the link when
     the run cuts off mid-transmission. *)
  let accounted =
    c "link.transmitted" + c "link.dropped"
    + (c "disc.droptail.enqueue" - c "disc.droptail.dequeue")
  in
  let in_flight = c "link.offered" - accounted in
  Alcotest.(check bool)
    "offered = transmitted + dropped + queued (+ <=1 in flight)" true
    (in_flight = 0 || in_flight = 1);
  Alcotest.(check bool) "pushes >= pops" true
    (c "sim.heap_push" >= c "sim.heap_pop");
  Alcotest.(check bool) "heap depth tracked" true
    (Obs.gauge_value s "sim.heap_max_depth" > 0)

(* --- aggregation determinism across the Pool ----------------------------- *)

(* Each task builds its env's counters from the policy itself, so the
   instance registers with the pool's per-task collector. *)
let counters_policy = { Obs.policy_counters = true; policy_trace = None }

let mini_sweep_tasks () =
  List.map
    (fun (queue, name) ->
      let key = Printf.sprintf "obs-mini/%s" name in
      Harness.Task.make ~key (fun ~seed ->
          fst (Taq_util.Out.with_buffer (fun () ->
              let env =
                Common.make_env ~obs:(Obs.of_policy counters_policy) ~queue
                  ~capacity_bps:200e3 ~buffer_pkts:20 ~seed ()
              in
              let _ids = Common.spawn_long_flows env ~n:4 ~rtt:0.1 () in
              Common.run env ~until:8.0;
              Taq_util.Out.printf "%s done\n" key))))
    [
      (Common.Droptail, "droptail");
      (Common.Sfq, "sfq");
      (Common.taq_marker, "taq");
    ]

let merged_counters ~jobs =
  let results = Harness.Pool.run ~jobs (mini_sweep_tasks ()) in
  List.iter
    (fun (r : string Harness.Pool.result) ->
      match r.Harness.Pool.value with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (r.Harness.Pool.key ^ ": " ^ e))
    results;
  let merged =
    Obs.merge_all (List.map (fun r -> r.Harness.Pool.obs) results)
  in
  (merged.Obs.counters, merged.Obs.gauges)

let test_jobs_identical () =
  let c1, g1 = merged_counters ~jobs:1 in
  let c4, g4 = merged_counters ~jobs:4 in
  Alcotest.(check bool) "captured something" true (c1 <> []);
  Alcotest.(check (list (pair string int)))
    "counters identical at jobs=1 and jobs=4" c1 c4;
  Alcotest.(check (list (pair string int)))
    "gauges identical at jobs=1 and jobs=4" g1 g4

(* --- snapshot wire form (durable runs) ------------------------------------- *)

let test_snapshot_wire_roundtrip () =
  let t = Obs.create () in
  Obs.labeled t "sim.events_scheduled" 1;
  Obs.labeled t "link.bytes_transmitted" 123456;
  Obs.labeled t "disc.taq.drop" 7;
  Obs.labeled t "tracker.flows_created" 42;
  (Obs.labeled_gauge_ref t "sim.heap_max_depth") := 99;
  Obs.labeled_gauge_max t "guard.dwell" 17;
  let snap = Obs.snapshot t in
  match Obs.snapshot_of_string (Obs.snapshot_to_string snap) with
  | Error msg -> Alcotest.failf "wire parse failed: %s" msg
  | Ok snap' ->
      Alcotest.(check bool) "counters exact" true
        (snap'.Obs.counters = snap.Obs.counters);
      Alcotest.(check bool) "gauges exact" true
        (snap'.Obs.gauges = snap.Obs.gauges);
      (* The wire form carries only the deterministic parts. *)
      Alcotest.(check int) "no events" 0 (List.length snap'.Obs.events);
      (* Merging parsed snapshots behaves like merging originals. *)
      let m = Obs.merge_all [ snap'; snap' ] in
      Alcotest.(check int) "merged counter sums" 246912
        (Obs.counter_value m "link.bytes_transmitted");
      Alcotest.(check int) "merged gauge max" 99
        (Obs.gauge_value m "sim.heap_max_depth")

let test_snapshot_wire_empty () =
  match Obs.snapshot_of_string (Obs.snapshot_to_string Obs.empty_snapshot) with
  | Error msg -> Alcotest.failf "empty wire parse failed: %s" msg
  | Ok snap ->
      Alcotest.(check bool) "empty round-trips" true
        (snap.Obs.counters = [] && snap.Obs.gauges = [])

let test_snapshot_wire_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.snapshot_of_string s with
      | Ok _ -> Alcotest.failf "accepted garbage %S" s
      | Error _ -> ())
    [
      "";
      "not json";
      {|{"counters":{"x":"nan"}}|};
      {|{"counters":{"x":1.5}}|};
      {|{"counters":[1,2]}|};
    ]

let () =
  Alcotest.run "taq_obs"
    [
      ( "obs",
        [
          Alcotest.test_case "off is inert" `Quick test_off_is_inert;
          Alcotest.test_case "counters + snapshot" `Quick
            test_counters_and_snapshot;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "labeled_ref when off" `Quick
            test_labeled_ref_disabled;
          Alcotest.test_case "policy_of_spec" `Quick test_policy_of_spec;
          Alcotest.test_case "snapshot wire round-trip" `Quick
            test_snapshot_wire_roundtrip;
          Alcotest.test_case "snapshot wire empty" `Quick
            test_snapshot_wire_empty;
          Alcotest.test_case "snapshot wire rejects garbage" `Quick
            test_snapshot_wire_rejects_garbage;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "integral exact" `Quick test_json_integral_exact;
          Alcotest.test_case "strict parser" `Quick test_json_strict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_trace_json_roundtrip;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "droptail unperturbed" `Quick
            (test_obs_does_not_perturb Common.Droptail);
          Alcotest.test_case "taq unperturbed" `Quick
            (test_obs_does_not_perturb Common.taq_marker);
          Alcotest.test_case "counters consistent" `Quick
            test_counters_consistent;
        ] );
      ( "aggregation",
        [ Alcotest.test_case "jobs=1 vs jobs=4" `Slow test_jobs_identical ] );
    ]

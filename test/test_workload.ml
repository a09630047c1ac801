(* Tests for taq_workload: the object-size distribution, the synthetic
   trace generator (including CSV round-trip), and web-session pools
   driving real TCP connections over a simulated bottleneck. *)

module Object_size = Taq_workload.Object_size
module Trace = Taq_workload.Trace
module Web_session = Taq_workload.Web_session
module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config

(* --- Object_size ------------------------------------------------------------ *)

let test_sizes_in_bounds () =
  let prng = Taq_util.Prng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let s = Object_size.sample prng in
    if s < 100 || s > 100_000_000 then Alcotest.failf "size out of bounds: %d" s
  done

let test_sizes_bulk_in_web_range () =
  (* The calibration target: most objects between 1 KB and 100 KB. *)
  let prng = Taq_util.Prng.create ~seed:2 in
  let n = 20_000 in
  let in_range = ref 0 in
  for _ = 1 to n do
    let s = Object_size.sample prng in
    if s >= 1_000 && s <= 100_000 then incr in_range
  done;
  let frac = float_of_int !in_range /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "bulk in 1K-100K (%.2f)" frac)
    true (frac > 0.5)

let test_sizes_have_heavy_tail () =
  let prng = Taq_util.Prng.create ~seed:3 in
  let big = ref 0 in
  for _ = 1 to 20_000 do
    if Object_size.sample prng > 1_000_000 then incr big
  done;
  Alcotest.(check bool) "some objects exceed 1MB" true (!big > 10)

(* --- Trace -------------------------------------------------------------------- *)

let small_params =
  {
    Trace.clients = 20;
    duration = 600.0;
    mean_think = 30.0;
    objects_per_page_max = 6;
    size_params = Object_size.default;
  }

let test_trace_deterministic () =
  let a = Trace.generate ~params:small_params ~seed:7 () in
  let b = Trace.generate ~params:small_params ~seed:7 () in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "identical records" true (r = b.(i)))
    a

let test_trace_sorted_and_bounded () =
  let t = Trace.generate ~params:small_params ~seed:8 () in
  Alcotest.(check bool) "non-empty" true (Array.length t > 0);
  let last = ref neg_infinity in
  Array.iter
    (fun r ->
      if r.Trace.time < !last then Alcotest.fail "not sorted";
      last := r.Trace.time;
      if r.Trace.time < 0.0 || r.Trace.time > 600.0 then
        Alcotest.fail "time out of range";
      if r.Trace.client < 0 || r.Trace.client >= 20 then
        Alcotest.fail "client out of range")
    t

let test_trace_default_scale () =
  (* The default parameters approximate the paper's trace: 221 clients,
     2 hours, on the order of 1.5 GB. Generating the full trace is
     cheap enough to test the calibration. *)
  let t = Trace.generate ~seed:42 () in
  let clients = Array.length (Trace.client_ids t) in
  Alcotest.(check bool)
    (Printf.sprintf "most clients appear (%d)" clients)
    true (clients > 200);
  let gb = float_of_int (Trace.total_bytes t) /. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "volume on the ~GB scale (%.2f GB)" gb)
    true
    (gb > 0.3 && gb < 5.0)

let test_trace_csv_roundtrip () =
  let t = Trace.generate ~params:small_params ~seed:9 () in
  let path = Filename.temp_file "taq_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_csv t ~path;
      let back = Trace.load_csv ~path in
      Alcotest.(check int) "length" (Array.length t) (Array.length back);
      Array.iteri
        (fun i r ->
          Alcotest.(check int) "client" r.Trace.client back.(i).Trace.client;
          Alcotest.(check int) "size" r.Trace.size back.(i).Trace.size;
          Alcotest.(check (float 1e-5)) "time" r.Trace.time back.(i).Trace.time)
        t)

(* --- Web_session ----------------------------------------------------------------- *)

let session_fixture ?(capacity_bps = 1e6) ?(max_conns = 4) () =
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let tcp = Tcp_config.default in
  let session =
    Web_session.create ~net ~tcp ~pool:1 ~rtt:0.1 ~max_conns ()
  in
  (sim, session)

let test_session_fetches_objects () =
  let sim, session = session_fixture () in
  Web_session.request session ~size:5_000;
  Web_session.request session ~size:20_000;
  Web_session.start session;
  Sim.run ~until:120.0 sim;
  Alcotest.(check int) "both complete" 2 (List.length (Web_session.completed session));
  Alcotest.(check int) "nothing pending" 0 (Web_session.pending session);
  List.iter
    (fun f ->
      Alcotest.(check bool) "download has positive duration" true
        (f.Web_session.finished_at > f.Web_session.started_at))
    (Web_session.completed session)

let test_session_respects_max_conns () =
  let sim, session = session_fixture ~max_conns:2 () in
  for _ = 1 to 6 do
    Web_session.request session ~size:50_000
  done;
  Web_session.start session;
  (* Immediately after start only 2 connections exist. *)
  Alcotest.(check int) "2 flows opened" 2 (List.length (Web_session.flow_ids session));
  Sim.run ~until:600.0 sim;
  Alcotest.(check int) "eventually all 6" 6
    (List.length (Web_session.completed session));
  Alcotest.(check int) "6 flows total" 6 (List.length (Web_session.flow_ids session))

let test_session_download_time_scales_with_size () =
  let run size =
    let sim, session = session_fixture ~capacity_bps:200_000.0 () in
    Web_session.request session ~size;
    Web_session.start session;
    Sim.run ~until:600.0 sim;
    match Web_session.completed session with
    | [ f ] -> f.Web_session.finished_at -. f.Web_session.started_at
    | _ -> Alcotest.fail "expected one completed fetch"
  in
  let small = run 5_000 and large = run 200_000 in
  Alcotest.(check bool)
    (Printf.sprintf "large slower (%.2f vs %.2f)" large small)
    true (large > 2.0 *. small)

let test_session_feeds_hangs_recorder () =
  let sim, _ = session_fixture () in
  ignore sim;
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let hangs = Taq_metrics.Hangs.create () in
  let session =
    Web_session.create ~net ~tcp:Tcp_config.default ~pool:3 ~rtt:0.1
      ~max_conns:2 ~hangs ()
  in
  Web_session.request session ~size:10_000;
  Web_session.start session;
  Sim.run ~until:60.0 sim;
  (* The recorder saw data: the max hang is well under the run length. *)
  Alcotest.(check bool) "data events recorded" true
    (Taq_metrics.Hangs.max_hang hangs ~pool:3 ~until:1.0 < 1.0)

let test_session_fetch_accounting () =
  let sim, session = session_fixture () in
  Web_session.request session ~size:5_000;
  Web_session.request session ~size:5_000;
  Web_session.start session;
  Sim.run ~until:1.0 sim;
  (* Possibly unfinished at 1 s; fetches must still report both. *)
  Alcotest.(check int) "all requests reported" 2
    (List.length (Web_session.fetches session))


(* --- Persistent_session ---------------------------------------------------- *)

module Persistent_session = Taq_workload.Persistent_session

let persistent_fixture ?(capacity_bps = 1e6) ?(conns = 2) () =
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let session =
    Persistent_session.create ~net ~tcp:Tcp_config.default ~pool:1 ~rtt:0.1
      ~conns ()
  in
  (sim, session)

let test_persistent_serves_pipelined_objects () =
  let sim, session = persistent_fixture () in
  Persistent_session.start session;
  for _ = 1 to 5 do
    Persistent_session.request session ~size:8_000
  done;
  Sim.run ~until:60.0 sim;
  Alcotest.(check int) "all objects served" 5
    (List.length (Persistent_session.completed session));
  Alcotest.(check int) "nothing pending" 0 (Persistent_session.pending session);
  (* Persistent: connection count, not object count, sets flow count. *)
  Alcotest.(check int) "two flows only" 2
    (List.length (Persistent_session.flow_ids session))

let test_persistent_objects_complete_in_order_per_conn () =
  let sim, session = persistent_fixture ~conns:1 () in
  Persistent_session.start session;
  Persistent_session.request session ~size:50_000;
  Persistent_session.request session ~size:1_000;
  Sim.run ~until:60.0 sim;
  match Persistent_session.completed session with
  | [ first; second ] ->
      (* Pipelining: the small object queued behind the big one cannot
         overtake it on the same connection. *)
      Alcotest.(check int) "big served first" 50_000 first.Persistent_session.size;
      Alcotest.(check bool) "order by time" true
        (first.Persistent_session.finished_at
        <= second.Persistent_session.finished_at)
  | l -> Alcotest.failf "expected 2 completions, got %d" (List.length l)

let test_persistent_idle_between_objects () =
  (* The connection survives idling: serve one object, wait, serve
     another on the same flow. *)
  let sim, session = persistent_fixture ~conns:1 () in
  Persistent_session.start session;
  Persistent_session.request session ~size:5_000;
  Sim.run ~until:30.0 sim;
  Alcotest.(check int) "first done" 1
    (List.length (Persistent_session.completed session));
  (* 30 s of silence, then more data on the same connection. *)
  Persistent_session.request session ~size:5_000;
  Sim.run ~until:90.0 sim;
  Alcotest.(check int) "second done after idle" 2
    (List.length (Persistent_session.completed session));
  Alcotest.(check int) "still one flow" 1
    (List.length (Persistent_session.flow_ids session))

let test_persistent_balances_connections () =
  let sim, session = persistent_fixture ~conns:4 () in
  Persistent_session.start session;
  for _ = 1 to 8 do
    Persistent_session.request session ~size:20_000
  done;
  Sim.run ~until:120.0 sim;
  Alcotest.(check int) "all served across conns" 8
    (List.length (Persistent_session.completed session))

(* --- qcheck properties -------------------------------------------------- *)

let qcheck_rand = Qcheck_seed.rand ~file:"test_workload"

(* The object-size sampler respects its clamp bounds for every seed,
   not just the handful the unit tests pin. *)
let prop_object_size_bounds =
  QCheck.Test.make ~name:"object sizes within params bounds" ~count:100
    QCheck.(int_range 0 1000000000)
    (fun seed ->
      let prng = Taq_util.Prng.create ~seed in
      let p = Object_size.default in
      let ok = ref true in
      for _ = 1 to 200 do
        let s = Object_size.sample prng in
        if s < p.Object_size.min_bytes || s > p.Object_size.max_bytes then
          ok := false
      done;
      !ok)

(* Generated traces are sorted and every record is within bounds, for
   arbitrary seeds and (small) parameter choices. *)
let prop_trace_sorted_and_bounded =
  QCheck.Test.make ~name:"traces sorted and in bounds" ~count:40
    QCheck.(
      triple (int_range 0 1000000000) (int_range 1 40)
        (float_range 10.0 900.0))
    (fun (seed, clients, duration) ->
      let params =
        {
          Trace.clients;
          duration;
          mean_think = 20.0;
          objects_per_page_max = 5;
          size_params = Object_size.default;
        }
      in
      let t = Trace.generate ~params ~seed () in
      let last = ref neg_infinity in
      let size_params = Object_size.default in
      Array.for_all
        (fun r ->
          let sorted = r.Trace.time >= !last in
          last := r.Trace.time;
          sorted
          && r.Trace.time >= 0.0
          && r.Trace.time <= duration
          && r.Trace.client >= 0
          && r.Trace.client < clients
          && r.Trace.size >= size_params.Object_size.min_bytes
          && r.Trace.size <= size_params.Object_size.max_bytes)
        t)

(* --- Flood ------------------------------------------------------------------

   The adversarial generators behind the overload guard's flood drills:
   storms of 40-byte fresh-flow packets. These tests pin the contract
   the fault injector and the drills rely on — exact arrival window,
   Poisson rate, per-seed determinism, a separate flow-id space, and a
   bounded endpoint map. *)

module Flood = Taq_workload.Flood

let flood_fixture () =
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  (sim, net)

let test_flood_kind_roundtrip () =
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool) name true (Flood.kind_of_string name = Some k))
    [
      ("syn", Flood.Syn_churn); ("data", Flood.One_packet);
      ("pool", Flood.Pool_churn);
    ];
  Alcotest.(check bool) "unknown kind" true (Flood.kind_of_string "weird" = None)

let test_flood_window_and_rate () =
  let sim, net = flood_fixture () in
  let prng = Taq_util.Prng.create ~seed:7 in
  let hook = ref 0 in
  let f =
    Flood.install
      ~on_send:(fun () -> incr hook)
      ~net ~prng ~kind:Flood.Syn_churn ~rate:200.0 ~at:1.0 ~duration:5.0 ()
  in
  Sim.run ~until:0.99 sim;
  Alcotest.(check int) "silent before onset" 0 (Flood.sent f);
  Sim.run ~until:20.0 sim;
  let n = Flood.sent f in
  Alcotest.(check int) "on_send fired per packet" n !hook;
  (* Poisson(mean 1000): 4 sigma is ~±126. *)
  Alcotest.(check bool)
    (Printf.sprintf "sent ~ rate*duration (%d)" n)
    true
    (n > 800 && n < 1200)

let test_flood_deterministic_and_id_space () =
  let run () =
    let sim, net = flood_fixture () in
    (* Ordinary traffic draws ids from the net's own cursor... *)
    let normal_before = Dumbbell.next_flow_id net in
    let prng = Taq_util.Prng.create ~seed:11 in
    let f =
      Flood.install ~net ~prng ~kind:Flood.Pool_churn ~rate:150.0 ~at:0.0
        ~duration:3.0 ()
    in
    Sim.run ~until:10.0 sim;
    (* ... and the flood never advances it: non-flood traces are
       byte-identical with and without the flood installed. *)
    Alcotest.(check int)
      "normal id cursor untouched" (normal_before + 1)
      (Dumbbell.next_flow_id net);
    (* Every flood registration was reclaimed: the endpoint map is
       bounded no matter how long the storm ran. *)
    Alcotest.(check int) "endpoint map drained" 0 (Dumbbell.flow_count net);
    Flood.sent f
  in
  Alcotest.(check int) "deterministic in seed" (run ()) (run ())

let test_flood_rejects () =
  let _, net = flood_fixture () in
  let prng = Taq_util.Prng.create ~seed:1 in
  List.iter
    (fun (name, rate, duration) ->
      Alcotest.check_raises name
        (Invalid_argument
           (if rate <= 0.0 then "Flood.install: rate"
            else "Flood.install: duration"))
        (fun () ->
          ignore
            (Flood.install ~net ~prng ~kind:Flood.One_packet ~rate ~at:0.0
               ~duration ())))
    [ ("zero rate", 0.0, 1.0); ("negative rate", -5.0, 1.0);
      ("negative duration", 10.0, -1.0) ]

(* The trace generator is a pure function of (params, seed). *)
let prop_trace_deterministic =
  QCheck.Test.make ~name:"trace generation deterministic in seed" ~count:25
    QCheck.(int_range 0 1000000000)
    (fun seed ->
      let a = Trace.generate ~params:small_params ~seed ()
      and b = Trace.generate ~params:small_params ~seed () in
      a = b)

let qcheck_props =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:qcheck_rand)
    [
      prop_object_size_bounds;
      prop_trace_sorted_and_bounded;
      prop_trace_deterministic;
    ]

let () =
  Alcotest.run "taq_workload"
    [
      ( "object_size",
        [
          Alcotest.test_case "bounds" `Quick test_sizes_in_bounds;
          Alcotest.test_case "bulk range" `Quick test_sizes_bulk_in_web_range;
          Alcotest.test_case "heavy tail" `Quick test_sizes_have_heavy_tail;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "sorted and bounded" `Quick test_trace_sorted_and_bounded;
          Alcotest.test_case "default scale" `Slow test_trace_default_scale;
          Alcotest.test_case "csv roundtrip" `Quick test_trace_csv_roundtrip;
        ] );
      ( "persistent_session",
        [
          Alcotest.test_case "pipelined objects" `Quick
            test_persistent_serves_pipelined_objects;
          Alcotest.test_case "in order per conn" `Quick
            test_persistent_objects_complete_in_order_per_conn;
          Alcotest.test_case "idle between objects" `Quick
            test_persistent_idle_between_objects;
          Alcotest.test_case "balances" `Quick test_persistent_balances_connections;
        ] );
      ( "web_session",
        [
          Alcotest.test_case "fetches" `Quick test_session_fetches_objects;
          Alcotest.test_case "max conns" `Quick test_session_respects_max_conns;
          Alcotest.test_case "size scaling" `Quick
            test_session_download_time_scales_with_size;
          Alcotest.test_case "hangs recorder" `Quick test_session_feeds_hangs_recorder;
          Alcotest.test_case "accounting" `Quick test_session_fetch_accounting;
        ] );
      ( "flood",
        [
          Alcotest.test_case "kind roundtrip" `Quick test_flood_kind_roundtrip;
          Alcotest.test_case "window and rate" `Quick
            test_flood_window_and_rate;
          Alcotest.test_case "deterministic, separate id space" `Quick
            test_flood_deterministic_and_id_space;
          Alcotest.test_case "rejects" `Quick test_flood_rejects;
        ] );
      ("properties", qcheck_props);
    ]

(* Tests for taq_metrics: slicing, fairness aggregation, flow-evolution
   classification, hang detection, CDFs, occupancy sampling and the
   loss monitor. *)

module Slicer = Taq_metrics.Slicer
module Flow_evolution = Taq_metrics.Flow_evolution
module Hangs = Taq_metrics.Hangs
module Cdf = Taq_metrics.Cdf
module Occupancy = Taq_metrics.Occupancy
module Loss_monitor = Taq_metrics.Loss_monitor
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet

let alloc = Packet.alloc ()

let checkf = Alcotest.(check (float 1e-9))

(* --- Slicer ---------------------------------------------------------------- *)

let test_slicer_bins_by_time () =
  let s = Slicer.create ~slice:10.0 in
  Slicer.record s ~flow:1 ~time:5.0 ~bytes:100;
  Slicer.record s ~flow:1 ~time:15.0 ~bytes:200;
  Slicer.record s ~flow:1 ~time:19.9 ~bytes:50;
  Alcotest.(check int) "slice 0" 100 (Slicer.bytes_in_slice s ~slice:0 ~flow:1);
  Alcotest.(check int) "slice 1" 250 (Slicer.bytes_in_slice s ~slice:1 ~flow:1);
  Alcotest.(check int) "total" 350 (Slicer.flow_total s ~flow:1);
  Alcotest.(check int) "count" 2 (Slicer.slice_count s)

let test_slicer_jain_per_slice () =
  let s = Slicer.create ~slice:10.0 in
  (* Slice 0: equal; slice 1: one hog. *)
  Slicer.record s ~flow:1 ~time:1.0 ~bytes:100;
  Slicer.record s ~flow:2 ~time:2.0 ~bytes:100;
  Slicer.record s ~flow:1 ~time:11.0 ~bytes:100;
  let j = Slicer.jain_per_slice s ~flows:[| 1; 2 |] in
  checkf "slice 0 fair" 1.0 j.(0);
  checkf "slice 1 hog" 0.5 j.(1)

let test_slicer_long_vs_short_term () =
  (* Alternating hogs: short-term unfair, long-term fair — the core
     phenomenon of Figure 2. *)
  let s = Slicer.create ~slice:10.0 in
  for slice = 0 to 9 do
    let flow = (slice mod 2) + 1 in
    Slicer.record s ~flow ~time:(float_of_int slice *. 10.0) ~bytes:100
  done;
  let flows = [| 1; 2 |] in
  checkf "short term 0.5" 0.5 (Slicer.mean_jain s ~flows ());
  checkf "long term 1.0" 1.0 (Slicer.long_term_jain s ~flows)

let test_slicer_silent_fraction () =
  let s = Slicer.create ~slice:10.0 in
  Slicer.record s ~flow:1 ~time:1.0 ~bytes:10;
  checkf "2 of 3 silent" (2.0 /. 3.0)
    (Slicer.silent_fraction s ~flows:[| 1; 2; 3 |] ~slice:0)

let test_slicer_top_share () =
  let s = Slicer.create ~slice:10.0 in
  Slicer.record s ~flow:1 ~time:1.0 ~bytes:80;
  Slicer.record s ~flow:2 ~time:1.0 ~bytes:10;
  Slicer.record s ~flow:3 ~time:1.0 ~bytes:10;
  (* Top 40% of 3 flows = top 2 flows = 90 of 100 bytes. *)
  checkf "top share" 0.9
    (Slicer.top_share s ~flows:[| 1; 2; 3 |] ~slice:0 ~top_fraction:0.4)

let test_slicer_mean_jain_skips_empty () =
  let s = Slicer.create ~slice:10.0 in
  Slicer.record s ~flow:1 ~time:1.0 ~bytes:10;
  Slicer.record s ~flow:2 ~time:1.0 ~bytes:10;
  (* Slice 1 empty, slice 2 active. *)
  Slicer.record s ~flow:1 ~time:25.0 ~bytes:10;
  Slicer.record s ~flow:2 ~time:25.0 ~bytes:10;
  checkf "empty slices skipped" 1.0 (Slicer.mean_jain s ~flows:[| 1; 2 |] ())

(* Ids are table keys, not packed into a key with the slice, so any int
   is a flow. *)
let extreme_flows = [| -1; 1 lsl 40; max_int |]

let test_slicer_any_flow_id () =
  let s = Slicer.create ~slice:10.0 in
  Array.iteri
    (fun i flow ->
      Slicer.record s ~flow ~time:5.0 ~bytes:(i + 1);
      Slicer.record s ~flow
        ~time:(25.0 +. float_of_int i)
        ~bytes:(10 * (i + 1)))
    extreme_flows;
  Array.iteri
    (fun i flow ->
      let name = string_of_int flow in
      Alcotest.(check int) (name ^ " slice 0") (i + 1)
        (Slicer.bytes_in_slice s ~slice:0 ~flow);
      Alcotest.(check int) (name ^ " slice 1") 0
        (Slicer.bytes_in_slice s ~slice:1 ~flow);
      Alcotest.(check int) (name ^ " slice 2") (10 * (i + 1))
        (Slicer.bytes_in_slice s ~slice:2 ~flow);
      Alcotest.(check int) (name ^ " total") (11 * (i + 1))
        (Slicer.flow_total s ~flow))
    extreme_flows;
  Alcotest.(check int) "neighbour of max_int" 0
    (Slicer.flow_total s ~flow:(max_int - 1))

let test_slicer_negative_time () =
  let s = Slicer.create ~slice:10.0 in
  match Slicer.record s ~flow:1 ~time:(-0.5) ~bytes:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative time must raise"

(* --- Flow_evolution ----------------------------------------------------------- *)

let test_evolution_classify () =
  Alcotest.(check bool) "maintained" true
    (Flow_evolution.classify ~active_prev:true ~active_cur:true
    = Flow_evolution.Maintained);
  Alcotest.(check bool) "dropped" true
    (Flow_evolution.classify ~active_prev:true ~active_cur:false
    = Flow_evolution.Dropped);
  Alcotest.(check bool) "arriving" true
    (Flow_evolution.classify ~active_prev:false ~active_cur:true
    = Flow_evolution.Arriving);
  Alcotest.(check bool) "stalled" true
    (Flow_evolution.classify ~active_prev:false ~active_cur:false
    = Flow_evolution.Stalled)

let test_evolution_series () =
  let t = Flow_evolution.create ~window:10.0 in
  Flow_evolution.note_start t ~flow:1 ~time:0.0;
  Flow_evolution.note_start t ~flow:2 ~time:0.0;
  (* Flow 1 active in windows 0,1,2; flow 2 active only in window 0. *)
  Flow_evolution.note_activity t ~flow:1 ~time:5.0;
  Flow_evolution.note_activity t ~flow:2 ~time:5.0;
  Flow_evolution.note_activity t ~flow:1 ~time:15.0;
  Flow_evolution.note_activity t ~flow:1 ~time:25.0;
  let s = Flow_evolution.series t ~until:29.0 in
  (* Window 1: flow 1 maintained, flow 2 dropped. *)
  Alcotest.(check int) "w1 maintained" 1 s.Flow_evolution.maintained.(1);
  Alcotest.(check int) "w1 dropped" 1 s.Flow_evolution.dropped.(1);
  (* Window 2: flow 1 maintained, flow 2 stalled. *)
  Alcotest.(check int) "w2 stalled" 1 s.Flow_evolution.stalled.(2);
  Alcotest.(check int) "w2 live" 2 s.Flow_evolution.live.(2)

let test_evolution_arrival_after_silence () =
  let t = Flow_evolution.create ~window:10.0 in
  Flow_evolution.note_start t ~flow:1 ~time:0.0;
  Flow_evolution.note_activity t ~flow:1 ~time:5.0;
  (* Silent in window 1, active again in window 2. *)
  Flow_evolution.note_activity t ~flow:1 ~time:25.0;
  let s = Flow_evolution.series t ~until:29.0 in
  Alcotest.(check int) "w2 arriving" 1 s.Flow_evolution.arriving.(2)

let test_evolution_finished_flows_leave () =
  let t = Flow_evolution.create ~window:10.0 in
  Flow_evolution.note_start t ~flow:1 ~time:0.0;
  Flow_evolution.note_activity t ~flow:1 ~time:5.0;
  Flow_evolution.note_finish t ~flow:1 ~time:9.0;
  let s = Flow_evolution.series t ~until:25.0 in
  Alcotest.(check int) "not live in w2" 0 s.Flow_evolution.live.(2)

let test_evolution_fractions () =
  let t = Flow_evolution.create ~window:10.0 in
  Flow_evolution.note_start t ~flow:1 ~time:0.0;
  for w = 0 to 4 do
    Flow_evolution.note_activity t ~flow:1 ~time:((float_of_int w *. 10.0) +. 1.0)
  done;
  let s = Flow_evolution.series t ~until:49.0 in
  checkf "always maintained" 1.0 (Flow_evolution.maintained_fraction s);
  checkf "never stalled" 0.0 (Flow_evolution.stalled_fraction s)

let test_evolution_any_flow_id () =
  let t = Flow_evolution.create ~window:10.0 in
  Array.iter
    (fun flow -> Flow_evolution.note_start t ~flow ~time:0.0)
    extreme_flows;
  (* -1 active in windows 0 and 1, 1 lsl 40 only in 0, max_int only in 1:
     one of each class but stalled in window 1. *)
  Flow_evolution.note_activity t ~flow:(-1) ~time:5.0;
  Flow_evolution.note_activity t ~flow:(-1) ~time:15.0;
  Flow_evolution.note_activity t ~flow:(1 lsl 40) ~time:5.0;
  Flow_evolution.note_activity t ~flow:max_int ~time:15.0;
  let s = Flow_evolution.series t ~until:19.0 in
  Alcotest.(check int) "maintained" 1 s.Flow_evolution.maintained.(1);
  Alcotest.(check int) "dropped" 1 s.Flow_evolution.dropped.(1);
  Alcotest.(check int) "arriving" 1 s.Flow_evolution.arriving.(1);
  Alcotest.(check int) "stalled" 0 s.Flow_evolution.stalled.(1)

let test_evolution_negative_time () =
  let t = Flow_evolution.create ~window:10.0 in
  match Flow_evolution.note_activity t ~flow:1 ~time:(-0.5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative time must raise"

(* --- Hangs ----------------------------------------------------------------------- *)

let test_hangs_gaps () =
  let h = Hangs.create () in
  Hangs.note_session_start h ~pool:1 ~time:0.0;
  (* Gaps of 5, 1 and 24 s, in that order. *)
  Hangs.note_data h ~pool:1 ~time:5.0;
  checkf "first gap" 5.0 (Hangs.max_hang h ~pool:1 ~until:5.0);
  Hangs.note_data h ~pool:1 ~time:6.0;
  checkf "shorter gap keeps the max" 5.0 (Hangs.max_hang h ~pool:1 ~until:6.0);
  Hangs.note_data h ~pool:1 ~time:30.0;
  checkf "max of the three gaps" 24.0 (Hangs.max_hang h ~pool:1 ~until:30.0)

let test_hangs_trailing_gap_counts () =
  let h = Hangs.create () in
  Hangs.note_session_start h ~pool:1 ~time:0.0;
  Hangs.note_data h ~pool:1 ~time:1.0;
  (* Nothing since t=1; at until=61 the open 60 s hang counts. *)
  checkf "trailing hang" 60.0 (Hangs.max_hang h ~pool:1 ~until:61.0)

let test_hangs_fraction () =
  let h = Hangs.create () in
  Hangs.note_session_start h ~pool:1 ~time:0.0;
  Hangs.note_session_start h ~pool:2 ~time:0.0;
  (* Pool 1 hangs 30 s once; pool 2 stays busy. *)
  Hangs.note_data h ~pool:1 ~time:30.0;
  for i = 1 to 30 do
    Hangs.note_data h ~pool:2 ~time:(float_of_int i)
  done;
  checkf "half the pools" 0.5
    (Hangs.fraction_with_hang h ~pools:[| 1; 2 |] ~min_hang:20.0 ~until:30.0)

let test_hangs_session_end_closes () =
  let h = Hangs.create () in
  Hangs.note_session_start h ~pool:1 ~time:0.0;
  Hangs.note_data h ~pool:1 ~time:1.0;
  Hangs.note_session_end h ~pool:1 ~time:10.0;
  (* After the session ended, later "until" must not extend the gap. *)
  checkf "gap frozen at end" 9.0 (Hangs.max_hang h ~pool:1 ~until:100.0)

(* --- Memory ---------------------------------------------------------------------- *)

(* The tables' footprint at a 12 000 s horizon (150 flows, 20 s slices,
   5 s windows), one record per flow per slice or window. Tables keyed
   by a (slice, flow) pair hold a bucket cell per pair: about 426k
   words for the slicer and 1.70M for the evolution. *)
let soak_flows = 150

let words x = Obj.reachable_words (Obj.repr x)

let test_slicer_memory () =
  let slices = 600 in
  let s = Slicer.create ~slice:20.0 in
  for slice = 0 to slices - 1 do
    for flow = 0 to soak_flows - 1 do
      Slicer.record s ~flow ~time:(float_of_int slice *. 20.0) ~bytes:500
    done
  done;
  (* A dense per-flow array that doubles wastes at most half of itself:
     two words per (slice, flow) pair. *)
  let bound = 2 * slices * soak_flows in
  let w = words s in
  if w > bound then Alcotest.failf "slicer holds %d words, bound %d" w bound

let test_evolution_memory () =
  let windows = 2400 in
  let t = Flow_evolution.create ~window:5.0 in
  for w = 0 to windows - 1 do
    for flow = 0 to soak_flows - 1 do
      Flow_evolution.note_activity t ~flow ~time:(float_of_int w *. 5.0)
    done
  done;
  (* One bit per (window, flow) pair in a bitmap that doubles: four bits
     per pair leaves room for per-flow overhead. *)
  let bound = windows * soak_flows * 4 / Sys.int_size in
  let w = words t in
  if w > bound then Alcotest.failf "evolution holds %d words, bound %d" w bound

let test_hangs_memory_flat () =
  let fill calls =
    let h = Hangs.create () in
    for pool = 0 to 2 do
      Hangs.note_session_start h ~pool ~time:0.0;
      for i = 1 to calls do
        Hangs.note_data h ~pool ~time:(float_of_int i)
      done
    done;
    words h
  in
  Alcotest.(check int) "10^5 calls per pool cost what 10 do" (fill 10)
    (fill 100_000)

(* --- Cdf --------------------------------------------------------------------------- *)

let test_cdf_quantiles () =
  let c = Cdf.of_samples [| 5.; 1.; 3.; 2.; 4. |] in
  checkf "median" 3.0 (Cdf.quantile c 0.5);
  checkf "min" 1.0 (Cdf.quantile c 0.0);
  checkf "max" 5.0 (Cdf.quantile c 1.0)

let test_cdf_at () =
  let c = Cdf.of_samples [| 1.; 2.; 3.; 4. |] in
  checkf "below all" 0.0 (Cdf.at c 0.5);
  checkf "half" 0.5 (Cdf.at c 2.0);
  checkf "interior" 0.5 (Cdf.at c 2.5);
  checkf "all" 1.0 (Cdf.at c 10.0)

let test_cdf_points_monotone () =
  let prng = Taq_util.Prng.create ~seed:8 in
  let c = Cdf.of_samples (Array.init 100 (fun _ -> Taq_util.Prng.float prng 50.0)) in
  let pts = Cdf.points ~steps:10 c in
  let rec check = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
        Alcotest.(check bool) "values monotone" true (v1 <= v2);
        Alcotest.(check bool) "percentiles monotone" true (p1 <= p2);
        check rest
    | _ -> ()
  in
  check pts

let test_cdf_empty_rejected () =
  match Cdf.of_samples [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty must raise"

(* --- Occupancy ---------------------------------------------------------------------- *)

let test_occupancy_counts_epochs () =
  (* A sender on a clean fast link with a 0.1 s RTT, sampled on 0.1 s
     epochs, mostly occupies the high sent-classes. *)
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
  let net = Taq_net.Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let config = Taq_tcp.Tcp_config.make ~use_syn:false () in
  let session =
    Taq_tcp.Tcp_session.create ~net ~config ~rtt_prop:0.1
      ~total_segments:max_int ()
  in
  let occ = Occupancy.create ~sim ~epoch:0.1 ~wmax:6 () in
  Occupancy.attach occ (Taq_tcp.Tcp_session.sender session);
  Taq_tcp.Tcp_session.start session;
  Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "sampled epochs" true (Occupancy.observations occ > 100);
  let d = Occupancy.distribution occ in
  let sum = Array.fold_left ( +. ) 0.0 d in
  checkf "distribution sums to 1" 1.0 sum;
  Alcotest.(check bool) "clean flow lives in the top class" true (d.(6) > 0.5)

let test_occupancy_empty () =
  let sim = Sim.create () in
  let occ = Occupancy.create ~sim ~epoch:0.1 ~wmax:6 () in
  Alcotest.(check int) "no observations" 0 (Occupancy.observations occ);
  let d = Occupancy.distribution occ in
  checkf "all zero" 0.0 (Array.fold_left ( +. ) 0.0 d)

(* --- Loss_monitor ------------------------------------------------------------------- *)

let test_loss_monitor_rates () =
  let sim = Sim.create () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"t" ~capacity_pkts:1 () in
  let link =
    Taq_net.Link.create ~sim ~capacity_bps:1e3 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> ())
      ()
  in
  let lm = Loss_monitor.attach link in
  Sim.schedule sim ~at:0.0 (fun () ->
      (* First starts transmitting, second queues, next two drop. *)
      for seq = 1 to 4 do
        Taq_net.Link.send link
          (Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq ~size:100 ~sent_at:0.0 ())
      done);
  Sim.run ~until:0.1 sim;
  (* Packet 1 is accepted and immediately begins transmission, packet 2
     fills the 1-slot queue, packets 3 and 4 drop. *)
  Alcotest.(check int) "drops" 2 (Loss_monitor.drops lm);
  checkf "overall rate" 0.5 (Loss_monitor.overall_rate lm)

let test_loss_monitor_ignores_control () =
  let sim = Sim.create () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"t" ~capacity_pkts:0 () in
  let link =
    Taq_net.Link.create ~sim ~capacity_bps:1e3 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> ())
      ()
  in
  let lm = Loss_monitor.attach link in
  Sim.schedule sim ~at:0.0 (fun () ->
      Taq_net.Link.send link
        (Packet.make ~alloc ~flow:1 ~kind:Packet.Syn ~seq:0 ~size:40 ~sent_at:0.0 ()));
  Sim.run ~until:0.1 sim;
  Alcotest.(check int) "syn drop not counted" 0 (Loss_monitor.drops lm)


(* --- Packet_log -------------------------------------------------------------- *)

module Packet_log = Taq_metrics.Packet_log

let packet_log_fixture () =
  let sim = Sim.create () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"t" ~capacity_pkts:2 () in
  let link =
    Taq_net.Link.create ~sim ~capacity_bps:8000.0 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> ())
      ()
  in
  let log = Packet_log.attach ~now:(fun () -> Sim.now sim) link in
  (sim, link, log)

let test_packet_log_records_lifecycle () =
  let sim, link, log = packet_log_fixture () in
  Sim.schedule sim ~at:0.0 (fun () ->
      (* #1 starts transmitting immediately, #2/#3 fill the 2-slot
         queue, #4 drops. *)
      for seq = 1 to 4 do
        Taq_net.Link.send link
          (Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq ~size:500
             ~sent_at:0.0 ())
      done);
  Sim.run sim;
  let evs = Packet_log.events log in
  let kinds k = List.length (List.filter (fun e -> e.Packet_log.kind = k) evs) in
  Alcotest.(check int) "enqueues" 3 (kinds Packet_log.Enqueued);
  Alcotest.(check int) "drops" 1 (kinds Packet_log.Dropped);
  Alcotest.(check int) "deliveries" 3 (kinds Packet_log.Delivered);
  (* Chronological order. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "ordered" true
          (a.Packet_log.time <= b.Packet_log.time);
        monotone rest
    | _ -> ()
  in
  monotone evs

let test_packet_log_silence_gaps () =
  let sim, link, log = packet_log_fixture () in
  (* Two deliveries 10 s apart. *)
  List.iter
    (fun at ->
      Sim.schedule sim ~at (fun () ->
          Taq_net.Link.send link
            (Packet.make ~alloc ~flow:7 ~kind:Packet.Data ~seq:1 ~size:500
               ~sent_at:at ())))
    [ 0.0; 10.0 ];
  Sim.run sim;
  (match Packet_log.silence_gaps log ~flow:7 ~min_gap:5.0 with
  | [ (a, b) ] ->
      Alcotest.(check bool) "gap spans the silence" true (b -. a > 9.0)
  | l -> Alcotest.failf "expected one gap, got %d" (List.length l));
  Alcotest.(check (list (pair (float 0.1) (float 0.1))))
    "no gap at larger threshold" []
    (Packet_log.silence_gaps log ~flow:7 ~min_gap:60.0)

let test_packet_log_shut_down_fraction () =
  let sim, link, log = packet_log_fixture () in
  (* Flow 1 active in both 10 s windows, flow 2 only in the first. *)
  List.iter
    (fun (at, flow) ->
      Sim.schedule sim ~at (fun () ->
          Taq_net.Link.send link
            (Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:1 ~size:500
               ~sent_at:at ())))
    [ (1.0, 1); (1.5, 2); (11.0, 1) ];
  Sim.run sim;
  let frac = Packet_log.shut_down_fraction log ~slice:10.0 ~until:15.0 in
  Alcotest.(check (float 1e-9)) "window 0: none silent" 0.0 frac.(0);
  Alcotest.(check (float 1e-9)) "window 1: half silent" 0.5 frac.(1)

let test_packet_log_capacity_bound () =
  let sim, link, log0 = packet_log_fixture () in
  ignore (sim, link, log0);
  let sim = Sim.create () in
  let disc = Taq_net.Disc.fifo_of_queue ~name:"t" ~capacity_pkts:1000 () in
  let link =
    Taq_net.Link.create ~sim ~capacity_bps:1e9 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> ())
      ()
  in
  let log = Packet_log.attach ~capacity:10 ~now:(fun () -> Sim.now sim) link in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 50 do
        Taq_net.Link.send link
          (Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq ~size:100 ~sent_at:0.0 ())
      done);
  Sim.run sim;
  Alcotest.(check int) "bounded" 10 (Packet_log.count log);
  Alcotest.(check bool) "discards counted" true (Packet_log.dropped_events log > 0)

let test_packet_log_csv () =
  let sim, link, log = packet_log_fixture () in
  Sim.schedule sim ~at:0.0 (fun () ->
      Taq_net.Link.send link
        (Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq:1 ~size:500 ~sent_at:0.0 ()));
  Sim.run sim;
  let path = Filename.temp_file "taq_pktlog" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Packet_log.save_csv log ~path;
      let ic = open_in path in
      let header = input_line ic in
      let first = input_line ic in
      close_in ic;
      Alcotest.(check string) "header" "time,event,packet_kind,flow,seq,size" header;
      Alcotest.(check bool) "row mentions enqueue" true
        (String.length first > 0))

let prop_cdf_quantile_in_range =
  QCheck.Test.make ~name:"cdf quantiles stay within sample range" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range 0.0 1000.0))
        (float_range 0.0 1.0))
    (fun (xs, q) ->
      let c = Cdf.of_samples (Array.of_list xs) in
      let v = Cdf.quantile c q in
      v >= Cdf.min c && v <= Cdf.max c)

(* --- Per-flow cells against the packed-key references ------------------------ *)

(* [Slicer_ref] and [Flow_evolution_ref] are the tables before per-flow
   cells. Both pairs are driven with the same operations; at every
   [Query] and at the end, every reading of the tables must agree,
   floats to the bit, and the evolution series must be equal records. *)

module type SLICER = sig
  type t

  val create : slice:float -> t
  val record : t -> flow:int -> time:float -> bytes:int -> unit
  val slice_count : t -> int
  val bytes_in_slice : t -> slice:int -> flow:int -> int
  val flow_total : t -> flow:int -> int
  val jain_per_slice : t -> flows:int array -> float array
  val mean_jain :
    t -> flows:int array -> ?first:int -> ?last:int -> unit -> float
  val long_term_jain : t -> flows:int array -> float
  val silent_fraction : t -> flows:int array -> slice:int -> float
  val top_share :
    t -> flows:int array -> slice:int -> top_fraction:float -> float
end

module type EVOLUTION = sig
  type t
  type series

  val create : window:float -> t
  val note_start : t -> flow:int -> time:float -> unit
  val note_activity : t -> flow:int -> time:float -> unit
  val note_finish : t -> flow:int -> time:float -> unit
  val series : t -> until:float -> series
end

type metrics_op =
  | Deliver of int * float * int  (** flow, time, bytes *)
  | Start of int * float
  | Finish of int * float
  | Query

type metrics_run = {
  slice : float;
  window : float;
  flows : int array;  (** the ids the operations draw from *)
  ops : metrics_op list;
}

(* Times span this many slices. *)
let diff_slices = 60

let show_metrics_op = function
  | Deliver (f, t, b) -> Printf.sprintf "deliver %d@%h+%d" f t b
  | Start (f, t) -> Printf.sprintf "start %d@%h" f t
  | Finish (f, t) -> Printf.sprintf "finish %d@%h" f t
  | Query -> "query"

let gen_metrics_run =
  let open QCheck.Gen in
  let* slice = oneofl [ 0.5; 1.0; 20.0 /. 3.0 ] in
  (* 240, 60 or 24 windows: the first outgrows an 8-byte bitmap. *)
  let* window = map (fun k -> k *. slice) (oneofl [ 0.25; 1.0; 2.5 ]) in
  let* flows =
    array_size (int_range 1 6)
      (oneof [ int_bound ((1 lsl 22) - 1); oneofl [ 0; 1; (1 lsl 22) - 1 ] ])
  in
  let span = float_of_int diff_slices *. slice in
  (* Anywhere in the span, or on a slice or window boundary and one ulp
     below it. *)
  let time =
    oneof
      [
        float_bound_exclusive span;
        map3
          (fun len k below ->
            let at = float_of_int k *. len in
            if below && k > 0 then Float.pred at else at)
          (oneofl [ slice; window ])
          (int_bound diff_slices) bool;
      ]
  in
  let flow = oneofa flows in
  let op =
    frequency
      [
        (8, map3 (fun f t b -> Deliver (f, t, b)) flow time (int_range 1 1500));
        (2, map2 (fun f t -> Start (f, t)) flow time);
        (1, map2 (fun f t -> Finish (f, t)) flow time);
        (1, return Query);
      ]
  in
  let+ ops = list_size (int_range 1 300) op in
  { slice; window; flows; ops }

let arb_metrics_run =
  QCheck.make
    ~shrink:(fun r yield ->
      QCheck.Shrink.list r.ops (fun ops -> yield { r with ops }))
    ~print:(fun r ->
      Printf.sprintf "slice=%h window=%h flows=[%s]\n%s" r.slice r.window
        (String.concat ";" (Array.to_list (Array.map string_of_int r.flows)))
        (String.concat "; " (List.map show_metrics_op r.ops)))
    gen_metrics_run

module Tables (S : SLICER) (E : EVOLUTION) = struct
  type t = { s : S.t; e : E.t }

  let create r = { s = S.create ~slice:r.slice; e = E.create ~window:r.window }

  let apply t = function
    | Deliver (flow, time, bytes) ->
        S.record t.s ~flow ~time ~bytes;
        E.note_activity t.e ~flow ~time
    | Start (flow, time) -> E.note_start t.e ~flow ~time
    | Finish (flow, time) -> E.note_finish t.e ~flow ~time
    | Query -> ()

  (* Slicer readings, labelled, floats by their bits. [probe] is the
     run's flows plus one that never delivers. [cells] reads every
     (slice, flow) pair from slice -1 to one past the last; [aggregates]
     reads what is computed from the cells. *)
  let cells t ~probe =
    let n = S.slice_count t.s in
    let flow f =
      [
        ( Printf.sprintf "flow %d total" f,
          [| Int64.of_int (S.flow_total t.s ~flow:f) |] );
        ( Printf.sprintf "flow %d slices" f,
          Array.init (n + 2) (fun i ->
              Int64.of_int (S.bytes_in_slice t.s ~slice:(i - 1) ~flow:f)) );
      ]
    in
    ("slice_count", [| Int64.of_int n |])
    :: List.concat_map flow (Array.to_list probe)

  let aggregates t ~probe =
    let n = S.slice_count t.s in
    let floats = Array.map Int64.bits_of_float in
    let slice s =
      ( Printf.sprintf "slice %d silent, top 0.1/0.4/1" s,
        floats
          (Array.append
             [| S.silent_fraction t.s ~flows:probe ~slice:s |]
             (Array.map
                (fun top_fraction ->
                  S.top_share t.s ~flows:probe ~slice:s ~top_fraction)
                [| 0.1; 0.4; 1.0 |])) )
    in
    [
      ("jain_per_slice", floats (S.jain_per_slice t.s ~flows:probe));
      ( "mean_jain all, 1.., n/3..n/2",
        floats
          [|
            S.mean_jain t.s ~flows:probe ();
            S.mean_jain t.s ~flows:probe ~first:1 ();
            S.mean_jain t.s ~flows:probe ~first:(n / 3) ~last:(n / 2) ();
          |] );
      ("long_term_jain", floats [| S.long_term_jain t.s ~flows:probe |]);
    ]
    @ List.init n slice

  let series t ~until = E.series t.e ~until
end

module Old = Tables (Slicer_ref) (Flow_evolution_ref)
module New = Tables (Slicer) (Flow_evolution)

let series_of_ref (x : Flow_evolution_ref.series) =
  {
    Flow_evolution.window = x.Flow_evolution_ref.window;
    times = x.times;
    maintained = x.maintained;
    dropped = x.dropped;
    arriving = x.arriving;
    stalled = x.stalled;
    live = x.live;
  }

let show_series (x : Flow_evolution.series) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "window=%h times=%d maintained=%s dropped=%s arriving=%s stalled=%s live=%s"
    x.window (Array.length x.times) (ints x.maintained) (ints x.dropped)
    (ints x.arriving) (ints x.stalled) (ints x.live)

let run_metrics_diff r =
  let absent =
    List.find (fun f -> not (Array.mem f r.flows)) (List.init 7 Fun.id)
  in
  let probe = Array.append r.flows [| absent |] in
  let span = float_of_int diff_slices *. r.slice in
  let a = Old.create r and b = New.create r in
  let compare ~final step =
    let readings cells aggregates t =
      if final then cells t ~probe @ aggregates t ~probe else cells t ~probe
    in
    let show v =
      String.concat "," (Array.to_list (Array.map (Printf.sprintf "%Lx") v))
    in
    List.iter2
      (fun (label, x) (_, y) ->
        if x <> y then
          QCheck.Test.fail_reportf "after op %d, %s:\n  ref: %s\n  new: %s"
            step label (show x) (show y))
      (readings Old.cells Old.aggregates a)
      (readings New.cells New.aggregates b);
    List.iter
      (fun until ->
        let x = series_of_ref (Old.series a ~until)
        and y = New.series b ~until in
        if x <> y then
          QCheck.Test.fail_reportf
            "after op %d, series until %h:\n  ref: %s\n  new: %s" step until
            (show_series x) (show_series y))
      [ span; span /. 3.0 ]
  in
  (* The aggregates are one function of the cells in both, so the cells
     and the series are compared at every [Query], everything at the end. *)
  List.iteri
    (fun step op ->
      Old.apply a op;
      New.apply b op;
      if op = Query then compare ~final:false step)
    r.ops;
  compare ~final:true (List.length r.ops);
  true

let prop_metrics_match_reference =
  QCheck.Test.make ~name:"per-flow cells = packed-key references" ~count:300
    arb_metrics_run run_metrics_diff

let () =
  Alcotest.run "taq_metrics"
    [
      ( "slicer",
        [
          Alcotest.test_case "bins" `Quick test_slicer_bins_by_time;
          Alcotest.test_case "jain per slice" `Quick test_slicer_jain_per_slice;
          Alcotest.test_case "long vs short" `Quick test_slicer_long_vs_short_term;
          Alcotest.test_case "silent fraction" `Quick test_slicer_silent_fraction;
          Alcotest.test_case "top share" `Quick test_slicer_top_share;
          Alcotest.test_case "skips empty" `Quick test_slicer_mean_jain_skips_empty;
          Alcotest.test_case "any flow id" `Quick test_slicer_any_flow_id;
          Alcotest.test_case "negative time" `Quick test_slicer_negative_time;
        ] );
      ( "flow_evolution",
        [
          Alcotest.test_case "classify" `Quick test_evolution_classify;
          Alcotest.test_case "series" `Quick test_evolution_series;
          Alcotest.test_case "arrival" `Quick test_evolution_arrival_after_silence;
          Alcotest.test_case "finish" `Quick test_evolution_finished_flows_leave;
          Alcotest.test_case "fractions" `Quick test_evolution_fractions;
          Alcotest.test_case "any flow id" `Quick test_evolution_any_flow_id;
          Alcotest.test_case "negative time" `Quick test_evolution_negative_time;
        ] );
      ( "hangs",
        [
          Alcotest.test_case "gaps" `Quick test_hangs_gaps;
          Alcotest.test_case "trailing" `Quick test_hangs_trailing_gap_counts;
          Alcotest.test_case "fraction" `Quick test_hangs_fraction;
          Alcotest.test_case "session end" `Quick test_hangs_session_end_closes;
        ] );
      ( "memory",
        [
          Alcotest.test_case "slicer cells" `Quick test_slicer_memory;
          Alcotest.test_case "evolution bitmaps" `Quick test_evolution_memory;
          Alcotest.test_case "hangs flat" `Quick test_hangs_memory_flat;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "quantiles" `Quick test_cdf_quantiles;
          Alcotest.test_case "at" `Quick test_cdf_at;
          Alcotest.test_case "points monotone" `Quick test_cdf_points_monotone;
          Alcotest.test_case "empty" `Quick test_cdf_empty_rejected;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "counts epochs" `Quick test_occupancy_counts_epochs;
          Alcotest.test_case "empty" `Quick test_occupancy_empty;
        ] );
      ( "packet_log",
        [
          Alcotest.test_case "lifecycle" `Quick test_packet_log_records_lifecycle;
          Alcotest.test_case "silence gaps" `Quick test_packet_log_silence_gaps;
          Alcotest.test_case "shutdown fraction" `Quick
            test_packet_log_shut_down_fraction;
          Alcotest.test_case "capacity bound" `Quick test_packet_log_capacity_bound;
          Alcotest.test_case "csv" `Quick test_packet_log_csv;
        ] );
      ( "loss_monitor",
        [
          Alcotest.test_case "rates" `Quick test_loss_monitor_rates;
          Alcotest.test_case "ignores control" `Quick test_loss_monitor_ignores_control;
        ] );
      ( "cells_vs_reference",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_metrics_cells")
            prop_metrics_match_reference;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_metrics") prop_cdf_quantile_in_range ]);
    ]

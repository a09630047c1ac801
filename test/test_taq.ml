(* Tests for the TAQ core: the approximate flow-state machine, epoch
   estimation, flow tracking, the multi-class queues and scheduler,
   admission control, and the assembled discipline — ending with the
   headline integration property: TAQ improves short-term fairness
   over droptail under small-packet-regime contention. *)

open Taq_core
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Tcp_sender = Taq_tcp.Tcp_sender

let alloc = Packet.alloc ()

let mk_data ?(flow = 1) ?(pool = -1) ?(seq = 0) ?(size = 500) () =
  Packet.make ~alloc ~flow ~pool ~kind:Packet.Data ~seq ~size ~sent_at:0.0 ()

let mk_syn ?(flow = 1) ?(pool = -1) () =
  Packet.make ~alloc ~flow ~pool ~kind:Packet.Syn ~seq:0 ~size:40 ~sent_at:0.0 ()

(* --- Flow_state ----------------------------------------------------------- *)

(* One epoch's observables, as [Flow_state.step_counts] takes them. *)
type observation = {
  new_pkts : int;
  retx_pkts : int;
  drops : int;
  prev_new_pkts : int;
  outstanding_drops : int;
}

let obs ?(new_pkts = 0) ?(retx_pkts = 0) ?(drops = 0) ?(prev_new_pkts = 0)
    ?(outstanding_drops = 0) () =
  { new_pkts; retx_pkts; drops; prev_new_pkts; outstanding_drops }

let step state o =
  Flow_state.step_counts state ~new_pkts:o.new_pkts ~retx_pkts:o.retx_pkts
    ~drops:o.drops ~prev_new_pkts:o.prev_new_pkts
    ~outstanding_drops:o.outstanding_drops

let state_name = function
  | Flow_state.Slow_start -> "slow-start"
  | Normal -> "normal"
  | Loss_recovery -> "loss-recovery"
  | Timeout_silence -> "timeout-silence"
  | Timeout_recovery -> "timeout-recovery"
  | Extended_silence -> "extended-silence"
  | Idle -> "idle"

let all_states =
  Flow_state.
    [
      Slow_start;
      Normal;
      Loss_recovery;
      Timeout_silence;
      Timeout_recovery;
      Extended_silence;
      Idle;
    ]

let check_state = Alcotest.testable (Fmt.of_to_string state_name) ( = )

let test_fs_slow_start_growth () =
  (* Exponential growth keeps a flow in slow start. *)
  let s = step Flow_state.Slow_start (obs ~new_pkts:4 ~prev_new_pkts:2 ()) in
  Alcotest.check check_state "still slow start" Flow_state.Slow_start s

let test_fs_slow_start_to_normal () =
  let s = step Flow_state.Slow_start (obs ~new_pkts:4 ~prev_new_pkts:4 ()) in
  Alcotest.check check_state "linear growth -> normal" Flow_state.Normal s

let test_fs_drop_triggers_recovery () =
  let s = step Flow_state.Normal (obs ~new_pkts:3 ~drops:1 ~prev_new_pkts:3 ()) in
  Alcotest.check check_state "drop -> loss recovery" Flow_state.Loss_recovery s

let test_fs_silence_after_drop_is_timeout () =
  let s =
    step Flow_state.Normal (obs ~drops:1 ~prev_new_pkts:3 ())
  in
  Alcotest.check check_state "silent + drops -> timeout silence"
    Flow_state.Timeout_silence s

let test_fs_silence_without_drop_is_idle () =
  let s = step Flow_state.Normal (obs ~prev_new_pkts:3 ()) in
  Alcotest.check check_state "silent, no drops -> idle (dummy state)"
    Flow_state.Idle s

let test_fs_repeated_silence_extends () =
  let s = step Flow_state.Timeout_silence (obs ()) in
  Alcotest.check check_state "second silent epoch -> extended"
    Flow_state.Extended_silence s;
  let s = step Flow_state.Extended_silence (obs ()) in
  Alcotest.check check_state "stays extended" Flow_state.Extended_silence s

let test_fs_retx_after_silence_is_timeout_recovery () =
  let s = step Flow_state.Timeout_silence (obs ~retx_pkts:1 ()) in
  Alcotest.check check_state "retx -> timeout recovery"
    Flow_state.Timeout_recovery s

let test_fs_timeout_recovery_to_slow_start () =
  (* Figure 7: successful timeout recovery re-enters slow start. *)
  let s =
    step Flow_state.Timeout_recovery (obs ~new_pkts:2 ())
  in
  Alcotest.check check_state "recovered -> slow start" Flow_state.Slow_start s

let test_fs_loss_recovery_completes_to_normal () =
  let s =
    step Flow_state.Loss_recovery
      (obs ~new_pkts:2 ~outstanding_drops:0 ())
  in
  Alcotest.check check_state "recovered -> normal" Flow_state.Normal s

let test_fs_lost_recovery_retx_means_repetitive () =
  (* A timeout-recovery epoch followed by silence = the recovery
     retransmission was itself lost: repetitive timeout. *)
  let s = step Flow_state.Timeout_recovery (obs ()) in
  Alcotest.check check_state "recovery lost -> extended silence"
    Flow_state.Extended_silence s

let test_fs_total_over_all_states () =
  (* The step function must be total: no exception on any state and a
     representative set of observations. *)
  let observations =
    [
      obs ();
      obs ~new_pkts:1 ();
      obs ~retx_pkts:1 ();
      obs ~new_pkts:3 ~retx_pkts:2 ~drops:1 ~prev_new_pkts:1 ~outstanding_drops:2 ();
      obs ~drops:5 ();
    ]
  in
  List.iter
    (fun st -> List.iter (fun o -> ignore (step st o)) observations)
    all_states

(* --- Epoch estimation ------------------------------------------------------------ *)

(* The estimator lives in each flow's record: drive a tracker and read
   the flow's [epoch_len]. *)

let est_config =
  Taq_config.Estimated
    { default_epoch = 0.2; min_epoch = 0.02; max_epoch = 5.0; alpha = 0.5 }

let epoch_fixture epoch_source =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source;
    }
  in
  let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
  let syn time =
    clock := time;
    Flow_tracker.observe_syn t ~flow:1 ~pool:(-1)
  and data =
    let seq = ref 0 in
    fun time ->
      clock := time;
      incr seq;
      ignore (Flow_tracker.observe_data t (mk_data ~seq:!seq ()))
  in
  (t, syn, data)

let test_epoch_default_before_evidence () =
  let t, _syn, data = epoch_fixture est_config in
  Alcotest.(check (float 1e-9)) "unknown flow" 0.2 (Flow_tracker.epoch_len t ~flow:1);
  (* No SYN, so the first data packet samples nothing. *)
  data 0.5;
  Alcotest.(check (float 1e-9)) "default" 0.2 (Flow_tracker.epoch_len t ~flow:1)

let test_epoch_oracle () =
  let t, syn, data = epoch_fixture (Taq_config.Oracle 0.35) in
  syn 0.0;
  data 1.0;
  data 3.0;
  Alcotest.(check (float 1e-9)) "oracle fixed" 0.35 (Flow_tracker.epoch_len t ~flow:1)

let test_epoch_syn_data_gap () =
  let t, syn, data = epoch_fixture est_config in
  syn 0.0;
  data 0.3;
  Alcotest.(check (float 1e-9)) "initial from syn gap" 0.3
    (Flow_tracker.epoch_len t ~flow:1)

let test_epoch_burst_detection () =
  let t, syn, data = epoch_fixture est_config in
  syn 0.0;
  (* Bursts every 0.4 s: the estimate converges toward 0.4. *)
  let time = ref 0.4 in
  for _ = 1 to 30 do
    data !time;
    data (!time +. 0.01);
    data (!time +. 0.02);
    time := !time +. 0.4
  done;
  let est = Flow_tracker.epoch_len t ~flow:1 in
  Alcotest.(check bool)
    (Printf.sprintf "converges near 0.4 (got %.3f)" est)
    true
    (est > 0.3 && est < 0.5)

let test_epoch_clamped () =
  let t, syn, data = epoch_fixture est_config in
  syn 0.0;
  data 100.0;
  Alcotest.(check (float 1e-9)) "clamped at max" 5.0 (Flow_tracker.epoch_len t ~flow:1)

(* --- Flow_tracker ------------------------------------------------------------ *)

let tracker_fixture ?(epoch = 0.2) () =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle epoch;
    }
  in
  let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
  (t, clock)

let test_tracker_classifies_new_vs_retx () =
  let t, _clock = tracker_fixture () in
  Alcotest.(check bool) "first is new" true
    (Flow_tracker.observe_data t (mk_data ~seq:0 ()) = Flow_tracker.New_data);
  Alcotest.(check bool) "higher is new" true
    (Flow_tracker.observe_data t (mk_data ~seq:1 ()) = Flow_tracker.New_data);
  Alcotest.(check bool) "repeat is retx" true
    (Flow_tracker.observe_data t (mk_data ~seq:0 ())
    = Flow_tracker.Retransmission)

let test_tracker_ignores_sender_retx_flag () =
  (* A middlebox cannot see the sender's retx flag; inference is by
     sequence only. A "retx-flagged" packet with a fresh sequence must
     classify as new data. *)
  let t, _clock = tracker_fixture () in
  let p =
    Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq:0 ~size:500 ~retx:true
      ~sent_at:0.0 ()
  in
  Alcotest.(check bool) "flag ignored" true
    (Flow_tracker.observe_data t p = Flow_tracker.New_data)

let test_tracker_silence_epochs_accumulate () =
  let t, clock = tracker_fixture ~epoch:0.2 () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  (* Mark a drop so the silence reads as timeout, then let 5 epochs
     pass silently. *)
  Flow_tracker.observe_drop t (mk_data ~seq:1 ());
  clock := 1.1;
  Flow_tracker.tick t;
  let silence = Flow_tracker.silence_epochs t ~flow:1 in
  Alcotest.(check bool)
    (Printf.sprintf "several silent epochs (%d)" silence)
    true (silence >= 3);
  Alcotest.(check bool) "state is a silence state" true
    (match Flow_tracker.state t ~flow:1 with
    | Flow_state.Timeout_silence | Extended_silence -> true
    | _ -> false)

let test_tracker_overpenalized () =
  let t, _clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check bool) "not yet" false (Flow_tracker.is_overpenalized t ~flow:1);
  for seq = 1 to 3 do
    Flow_tracker.observe_drop t (mk_data ~seq ())
  done;
  Alcotest.(check bool) "after 3 drops" true
    (Flow_tracker.is_overpenalized t ~flow:1)

let test_tracker_new_flow_ages_out () =
  let t, clock = tracker_fixture ~epoch:0.1 () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check bool) "young flow" true (Flow_tracker.is_new_flow t ~flow:1);
  (* Keep it active across many epochs. *)
  for i = 1 to 20 do
    clock := 0.1 *. float_of_int i;
    ignore (Flow_tracker.observe_data t (mk_data ~seq:i ()))
  done;
  Alcotest.(check bool) "aged out" false (Flow_tracker.is_new_flow t ~flow:1)

let test_tracker_retx_consumes_outstanding_drop () =
  let t, _clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  ignore (Flow_tracker.observe_data t (mk_data ~seq:1 ()));
  Flow_tracker.observe_drop t (mk_data ~seq:2 ());
  Alcotest.(check int) "one outstanding" 1
    (Flow_tracker.outstanding_drops t ~flow:1);
  ignore (Flow_tracker.observe_data t (mk_data ~seq:1 ()));
  Alcotest.(check int) "consumed by retx" 0
    (Flow_tracker.outstanding_drops t ~flow:1)

let test_tracker_expires_idle_flows () =
  let t, clock = tracker_fixture () in
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check int) "tracked" 1 (Flow_tracker.tracked_flow_count t);
  clock := 500.0;
  Flow_tracker.tick t;
  Alcotest.(check int) "expired" 0 (Flow_tracker.tracked_flow_count t)

let test_tracker_rate_and_fair_share () =
  let t, clock = tracker_fixture ~epoch:0.1 () in
  (* Flow 1 sends 10 packets per epoch, flow 2 sends 1. *)
  let seq1 = ref 0 and seq2 = ref 0 in
  for i = 0 to 49 do
    clock := 0.1 *. float_of_int i;
    for _ = 1 to 10 do
      incr seq1;
      ignore (Flow_tracker.observe_data t (mk_data ~flow:1 ~seq:!seq1 ()))
    done;
    incr seq2;
    ignore (Flow_tracker.observe_data t (mk_data ~flow:2 ~seq:!seq2 ()))
  done;
  let r1 = Flow_tracker.rate_bps t ~flow:1 and r2 = Flow_tracker.rate_bps t ~flow:2 in
  Alcotest.(check bool) "rates ordered" true (r1 > r2);
  (* Fair share of 1 Mbps over 2 active flows = 500 Kbps: flow 1 at
     ~400 Kbps stays below; hog detection needs the real link. Flow 2 is
     certainly below. *)
  Alcotest.(check bool) "flow 2 below fair share" true
    (Flow_tracker.below_fair_share t ~flow:2);
  Alcotest.(check int) "two active" 2 (Flow_tracker.active_flow_count t)


(* --- Flow_tracker against the scanning reference ------------------------------ *)

(* [Flow_tracker_ref] is the tracker before its deadline heaps. Both are
   driven with the same operations on the same clock; after each one,
   every count, counter and per-flow accessor must agree, floats to the
   bit. *)

module Ref = Flow_tracker_ref
module Obs = Taq_obs.Obs

type tracker_op =
  | Syn of int * int  (** flow, pool *)
  | Data of int * int  (** flow, seq *)
  | Drop of int
  | Tick
  | Step of float
  | Land of int * int * int * bool
      (** Set the clock onto a boundary of a flow — 0: its active window
          closes, 1: its epoch ends, 2: it goes idle — moved by -1, 0 or
          +1 ulp; then tick if the flag is set. *)
  | Edge of int * int * bool
      (** Set the clock onto the [n]-th point after the current one of a
          50 ms grid, moved by -1, 0 or +1 ulp; then tick if the flag is
          set. *)

let show_op = function
  | Syn (f, p) -> Printf.sprintf "syn %d/%d" f p
  | Data (f, s) -> Printf.sprintf "data %d#%d" f s
  | Drop f -> Printf.sprintf "drop %d" f
  | Tick -> "tick"
  | Step dt -> Printf.sprintf "step %h" dt
  | Land (f, b, u, tk) ->
      Printf.sprintf "land %d %s%+d%s" f
        (match b with 0 -> "window" | 1 -> "epoch" | _ -> "idle")
        u
        (if tk then " tick" else "")
  | Edge (n, u, tk) ->
      Printf.sprintf "edge +%d %+d%s" n u (if tk then " tick" else "")

(* Flow ids 0..flows-1; id [flows] is never seen. *)
let gen_tracker_op ~flows =
  let open QCheck.Gen in
  let flow = int_bound (flows - 1) in
  frequency
    [
      (2, map2 (fun f p -> Syn (f, p)) flow (int_range (-1) 2));
      (6, map2 (fun f s -> Data (f, s)) flow (int_bound 30));
      (2, map (fun f -> Drop f) flow);
      (2, return Tick);
      ( 4,
        map
          (fun dt -> Step dt)
          (oneof
             [ float_bound_inclusive 0.05; float_bound_inclusive 1.0;
               float_range 1.0 12.0 ]) );
      ( 4,
        map4
          (fun f b u tk -> Land (f, b, u, tk))
          flow (int_bound 2) (int_range (-1) 1) bool );
      ( 2,
        map3
          (fun n u tk -> Edge (n, u, tk))
          (int_bound 3) (int_range (-1) 1) bool );
    ]

(* Mostly ticks and short steps, with few reads: an unread flow owes the
   rolls of many short-gap ticks, often more than the 64 one catch-up
   may make. *)
let gen_tick_heavy_op ~flows =
  let open QCheck.Gen in
  let flow = int_bound (flows - 1) in
  frequency
    [
      (1, map2 (fun f p -> Syn (f, p)) flow (int_range (-1) 2));
      (2, map2 (fun f s -> Data (f, s)) flow (int_bound 30));
      (1, map (fun f -> Drop f) flow);
      (6, return Tick);
      (6, map (fun dt -> Step dt) (float_bound_inclusive 0.3));
      ( 1,
        map4
          (fun f b u tk -> Land (f, b, u, tk))
          flow (int_bound 2) (int_range (-1) 1) bool );
    ]

let gen_tracker_config ~caps =
  let open QCheck.Gen in
  map3
    (fun epoch_source flow_idle_timeout max_tracked_flows ->
      {
        (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
        Taq_config.epoch_source;
        flow_idle_timeout;
        max_tracked_flows;
      })
    (oneofl
       [
         Taq_config.Oracle 0.1;
         Taq_config.Oracle 0.4;
         (* Windows of 1–10 s, so an epoch estimate that shrinks pulls
            the window in. *)
         Taq_config.Estimated
           { default_epoch = 1.0; min_epoch = 0.05; max_epoch = 2.0; alpha = 0.5 };
         Taq_config.Estimated
           { default_epoch = 0.1; min_epoch = 0.02; max_epoch = 0.5; alpha = 0.3 };
       ])
    (oneofl [ 1.5; 4.0; 120.0 ])
    (oneofl caps)

(* A restart builds a tracker mid-run, so both start on a clock drawn
   from the beginning, the middle and late in a run. *)
let gen_tracker_start =
  QCheck.Gen.(
    oneof
      [
        return 0.0;
        return 997.3;
        map (fun dt -> 12_000.0 +. dt) (float_bound_inclusive 0.05);
      ])

let arb_tracker_run ?(gen_op = gen_tracker_op) ~flows ~caps () =
  QCheck.make
    ~print:(fun (_, start, ops) ->
      Printf.sprintf "start %h: %s" start
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(
      triple (gen_tracker_config ~caps) gen_tracker_start
        (list_size (int_range 1 250) (gen_op ~flows)))

(* Every observable of the two trackers, as comparable strings, so a
   failure names the first field that differs. Floats go by their bits
   (%h is exact). *)
let tracker_view ~flows ~count ~tracked ~peak ~evictions ~share ~counters
    ~per_flow =
  Printf.sprintf "active=%d tracked=%d peak=%d cap_evictions=%d share=%h %s"
    count tracked peak evictions share counters
  :: List.init (flows + 1) per_flow

let counters_of obs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Obs.snapshot obs).counters)

let ref_view ~flows r obs =
  tracker_view ~flows ~count:(Ref.active_flow_count r) ~tracked:(Ref.tracked_flow_count r)
    ~peak:(Ref.peak_tracked r) ~evictions:(Ref.cap_evictions r)
    ~share:(Ref.fair_share_bps r)
    ~counters:(counters_of obs) ~per_flow:(fun flow ->
      Printf.sprintf
        "flow %d: %s silent=%d epoch=%h epochs=%d rate=%h outstanding=%d \
         recent=%d overpen=%b new=%b pool=%d below=%b"
        flow
        (state_name (Ref.state r ~flow))
        (Ref.silence_epochs r ~flow) (Ref.epoch_len r ~flow)
        (Ref.epochs_observed r ~flow) (Ref.rate_bps r ~flow)
        (Ref.outstanding_drops r ~flow) (Ref.recent_drops r ~flow)
        (Ref.is_overpenalized r ~flow) (Ref.is_new_flow r ~flow)
        (Ref.pool_of r ~flow) (Ref.below_fair_share r ~flow))

let new_view ~flows t obs =
  tracker_view ~flows ~count:(Flow_tracker.active_flow_count t)
    ~tracked:(Flow_tracker.tracked_flow_count t) ~peak:(Flow_tracker.peak_tracked t)
    ~evictions:(Flow_tracker.cap_evictions t)
    ~share:(Flow_tracker.fair_share_bps t)
    ~counters:(counters_of obs) ~per_flow:(fun flow ->
      Printf.sprintf
        "flow %d: %s silent=%d epoch=%h epochs=%d rate=%h outstanding=%d \
         recent=%d overpen=%b new=%b pool=%d below=%b"
        flow
        (state_name (Flow_tracker.state t ~flow))
        (Flow_tracker.silence_epochs t ~flow) (Flow_tracker.epoch_len t ~flow)
        (Flow_tracker.epochs_observed t ~flow) (Flow_tracker.rate_bps t ~flow)
        (Flow_tracker.outstanding_drops t ~flow) (Flow_tracker.recent_drops t ~flow)
        (Flow_tracker.is_overpenalized t ~flow) (Flow_tracker.is_new_flow t ~flow)
        (Flow_tracker.pool_of t ~flow) (Flow_tracker.below_fair_share t ~flow))

let nudge at ~ulps =
  if ulps < 0 then Float.pred at else if ulps > 0 then Float.succ at else at

(* Where a [Land] puts the clock, read off the reference's flow record. *)
let land_target (config : Taq_config.t) r ~flow ~boundary ~ulps =
  match Hashtbl.find_opt r.Ref.flows flow with
  | None -> None
  | Some (f : Ref.flow) ->
      let epoch = Epoch_estimator.epoch f.est in
      let at =
        match boundary with
        | 0 -> f.last_seen +. Float.max 1.0 (5.0 *. epoch)
        | 1 -> f.epoch_start +. epoch
        | _ -> f.last_seen +. config.flow_idle_timeout
      in
      Some (nudge at ~ulps)

(* Where an [Edge] puts the clock: a grid of the default 50 ms tick
   interval, numbered from time 0. *)
let edge_target clock ~ahead ~ulps =
  let w = 0.05 in
  nudge (Float.of_int (int_of_float (Float.floor (clock /. w)) + 1 + ahead) *. w) ~ulps

(* When a run compares the two trackers, besides once at its end. A
   comparison reads every flow, which rolls it, and queries the count,
   which drains the heap: comparing after every tick still checks the
   heap, the list and the rolls at each tick, while only an end-only
   run leaves flows owing the rolls of many ticks, and the heap long
   stretches without a count query. *)
type compare_at = Every_op | After_ticks | End_only

let run_tracker_diff ~flows ~compare_at (config, start, ops) =
  let clock = ref start in
  let now () = !clock in
  let obs_r = Obs.create () and obs_n = Obs.create () in
  let r = Ref.create ~obs:obs_r ~config ~now () in
  let t = Flow_tracker.create ~obs:obs_n ~config ~now () in
  let compare step =
    let a = ref_view ~flows r obs_r and b = new_view ~flows t obs_n in
    List.iter2
      (fun x y ->
        if x <> y then
          QCheck.Test.fail_reportf "after op %d:\n  ref: %s\n  new: %s" step x y)
      a b;
    if Flow_tracker.active_flow_count_scan t <> Flow_tracker.active_flow_count t
    then QCheck.Test.fail_reportf "after op %d: scan disagrees" step;
    if Flow_tracker.overdue_flows t <> 0 then
      QCheck.Test.fail_reportf "after op %d: overdue flows the tick would miss" step
  in
  List.iteri
    (fun step op ->
      let tick () =
        Ref.tick r;
        Flow_tracker.tick t
      in
      (match op with
      | Syn (flow, pool) ->
          Ref.observe_syn r ~flow ~pool;
          Flow_tracker.observe_syn t ~flow ~pool
      | Data (flow, seq) ->
          let p = mk_data ~flow ~pool:(flow mod 3) ~seq () in
          let a = Ref.observe_data r p and b = Flow_tracker.observe_data t p in
          if (a = Ref.Retransmission) <> (b = Flow_tracker.Retransmission) then
            QCheck.Test.fail_reportf "op %d: classification differs" step
      | Drop flow ->
          let p = mk_data ~flow ~seq:0 () in
          Ref.observe_drop r p;
          Flow_tracker.observe_drop t p
      | Tick -> tick ()
      | Step dt -> clock := !clock +. dt
      | Land (flow, boundary, ulps, then_tick) -> (
          match land_target config r ~flow ~boundary ~ulps with
          | Some at when at >= !clock ->
              clock := at;
              if then_tick then tick ()
          | Some _ | None -> ())
      | Edge (ahead, ulps, then_tick) ->
          let at = edge_target !clock ~ahead ~ulps in
          if at >= !clock then begin
            clock := at;
            if then_tick then tick ()
          end);
      match compare_at with
      | Every_op -> compare step
      | After_ticks -> if op = Tick then compare step
      | End_only -> ())
    ops;
  compare (List.length ops);
  Flow_tracker.clock_monotone t

let prop_tracker_matches_reference =
  QCheck.Test.make ~name:"flow tracker = scanning reference, every op" ~count:300
    (arb_tracker_run ~flows:8 ~caps:[ 3; 5; 65536 ] ())
    (run_tracker_diff ~flows:8 ~compare_at:Every_op)

let prop_tracker_matches_reference_sparse =
  QCheck.Test.make ~name:"flow tracker = scanning reference, sparse queries"
    ~count:300
    (arb_tracker_run ~flows:8 ~caps:[ 3; 5; 65536 ] ())
    (run_tracker_diff ~flows:8 ~compare_at:After_ticks)

let prop_tracker_matches_reference_end =
  QCheck.Test.make ~name:"flow tracker = scanning reference, end only"
    ~count:300
    (arb_tracker_run ~flows:8 ~caps:[ 3; 5; 65536 ] ())
    (run_tracker_diff ~flows:8 ~compare_at:End_only)

let prop_tracker_matches_reference_ticks =
  QCheck.Test.make ~name:"flow tracker = scanning reference, ticks between reads"
    ~count:200
    (arb_tracker_run ~gen_op:gen_tick_heavy_op ~flows:8 ~caps:[ 5; 65536 ] ())
    (run_tracker_diff ~flows:8 ~compare_at:End_only)

(* Forty flow ids: the list holds many flows idle at once, cap evictions
   break ties among equal last-seen times, and slots are vacated and
   reused through idle expiry and cap eviction. *)
let prop_tracker_matches_reference_crowded =
  QCheck.Test.make ~name:"flow tracker = scanning reference, 40 flows"
    ~count:100
    (arb_tracker_run ~flows:40 ~caps:[ 5; 20; 65536 ] ())
    (run_tracker_diff ~flows:40 ~compare_at:Every_op)

let test_tracker_epoch_shrink_pulls_deadlines () =
  (* A flow whose epoch estimate shrinks from 2 s to ~0.1 s: its active
     window drops from 10 s to 1 s, so its heap key must move in
     (decrease-key) or the count would miss the new deadline, and its
     epoch boundary comes ~1.9 s earlier, so the rolls the tick leaves
     to the next read must use the new epoch. *)
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source =
        Taq_config.Estimated
          { default_epoch = 2.0; min_epoch = 0.05; max_epoch = 2.0; alpha = 1.0 };
    }
  in
  let now () = !clock in
  let r = Ref.create ~obs:Obs.off ~config ~now () in
  let t = Flow_tracker.create ~obs:Obs.off ~config ~now () in
  let both f g =
    f r;
    g t
  in
  both (Ref.observe_syn ~flow:1 ~pool:(-1)) (Flow_tracker.observe_syn ~flow:1 ~pool:(-1));
  Alcotest.(check int) "active after syn" 1 (Flow_tracker.active_flow_count t);
  clock := 0.1;
  let p = mk_data ~flow:1 ~seq:0 () in
  both
    (fun r -> ignore (Ref.observe_data r p))
    (fun t -> ignore (Flow_tracker.observe_data t p));
  Alcotest.(check (float 1e-12)) "epoch shrank" 0.1 (Flow_tracker.epoch_len t ~flow:1);
  (* The window is now 1 s: at 1.1 s the flow is still active, one ulp
     later it is not. *)
  clock := 1.1;
  Alcotest.(check int) "active at window end" (Ref.active_flow_count r)
    (Flow_tracker.active_flow_count t);
  clock := Float.succ 1.1;
  Alcotest.(check int) "inactive one ulp later" 0 (Ref.active_flow_count r);
  Alcotest.(check int) "heap agrees" 0 (Flow_tracker.active_flow_count t);
  both Ref.tick Flow_tracker.tick;
  Alcotest.(check int) "epochs rolled by the tick" (Ref.epochs_observed r ~flow:1)
    (Flow_tracker.epochs_observed t ~flow:1);
  Alcotest.(check bool) "rolled at all" true (Flow_tracker.epochs_observed t ~flow:1 > 0);
  Alcotest.(check int) "nothing overdue" 0 (Flow_tracker.overdue_flows t)

(* Silent flows roll one epoch per boundary passed; a roll must not
   build a record or box a float. The observation record and the boxed
   start cost 18.2 words per roll, and the rate average's boxed sample
   2.0; a roll now allocates nothing. The ticks leave the rolls to each
   flow's next read, so the window holds the ticks and the reads. *)
let test_tracker_silent_roll_allocation () =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.flow_idle_timeout = 1e6;
    }
  in
  let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
  let flows = 400 in
  for flow = 0 to flows - 1 do
    ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()))
  done;
  let epochs () =
    let n = ref 0 in
    for flow = 0 to flows - 1 do
      n := !n + Flow_tracker.epochs_observed t ~flow
    done;
    !n
  in
  let before = Gc.minor_words () in
  for i = 1 to 2_000 do
    clock := 0.05 *. float_of_int i;
    Flow_tracker.tick t
  done;
  let rolled = epochs () in
  let words = Gc.minor_words () -. before in
  (* 100 s of 0.2 s epochs; the last boundary may round past the end. *)
  Alcotest.(check bool) "every flow rolled ~500 epochs" true (rolled >= flows * 499);
  let per_roll = words /. float_of_int rolled in
  if per_roll > 1.0 then
    Alcotest.failf "%.1f minor words per rolled epoch, bound 1" per_roll

(* A tick forgets idle flows from the head of a list and leaves epoch
   rolls to each flow's next read, so flows that wait out the idle
   timeout cost it nothing: a thousand ticks allocate the same with ten
   tracked flows as with a thousand. *)
let test_tracker_idle_flows_cost_the_tick_nothing () =
  let tick_words flows =
    let clock = ref 0.0 in
    let config = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
    let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
    for flow = 0 to flows - 1 do
      ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()))
    done;
    let before = Gc.minor_words () in
    for i = 1 to 1_000 do
      clock := 0.05 *. float_of_int i;
      Flow_tracker.tick t
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "none expired" flows (Flow_tracker.tracked_flow_count t);
    words
  in
  Alcotest.(check (float 0.0)) "same minor words" (tick_words 10)
    (tick_words 1_000)

(* A tick more than 32 shortest epochs after the last one settles and
   catches up every flow with the budget of 64 rolls, as the scanning
   tick does. Flows silent for 100 epochs, one of them owing rolls from
   earlier ticks and one with drops in its open epoch, then one tick:
   both trackers clamp the same flows, and agree after later packets
   and short ticks too. *)
let test_tracker_long_gap_matches_reference () =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle 0.1;
    }
  in
  let now () = !clock in
  let obs_r = Obs.create () and obs_n = Obs.create () in
  let r = Ref.create ~obs:obs_r ~config ~now () in
  let t = Flow_tracker.create ~obs:obs_n ~config ~now () in
  let flows = 4 in
  let compare what =
    List.iter2
      (fun x y ->
        if x <> y then Alcotest.failf "%s:\n  ref: %s\n  new: %s" what x y)
      (ref_view ~flows r obs_r) (new_view ~flows t obs_n)
  in
  let data flow seq =
    let p = mk_data ~flow ~seq () in
    ignore (Ref.observe_data r p);
    ignore (Flow_tracker.observe_data t p)
  in
  let tick_at time =
    clock := time;
    Ref.tick r;
    Flow_tracker.tick t
  in
  for flow = 0 to flows - 1 do
    data flow 0;
    data flow 1
  done;
  let p = mk_data ~flow:2 ~seq:1 () in
  Ref.observe_drop r p;
  Flow_tracker.observe_drop t p;
  (* Short ticks leave every flow owing rolls; only flow 3 is read
     after them. *)
  for i = 1 to 8 do
    tick_at (0.05 *. float_of_int i)
  done;
  data 3 2;
  tick_at 10.4;
  compare "after the long gap";
  Alcotest.(check bool) "the budget clamped" true
    (Flow_tracker.epochs_observed t ~flow:0 < 100);
  data 0 2;
  data 1 2;
  for i = 1 to 6 do
    tick_at (10.4 +. (0.05 *. float_of_int i))
  done;
  compare "after short ticks"

(* The first estimate can cut the default epoch to the floor in one
   packet: here 2 s to 50 ms, 40x. The flow is then almost 2 s, 39 new
   epochs, behind, so the next tick, 1.59 s after the last (within 32
   floors), owes it 64 rolls and spends the budget. Both trackers must
   clamp it alike: with a cut over 24x, every tick rolls every flow. *)
let test_tracker_sharp_first_estimate_matches_reference () =
  let clock = ref 0.0 in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source =
        Taq_config.Estimated
          { default_epoch = 2.0; min_epoch = 0.05; max_epoch = 2.0; alpha = 0.25 };
    }
  in
  let now () = !clock in
  let obs_r = Obs.create () and obs_n = Obs.create () in
  let r = Ref.create ~obs:obs_r ~config ~now () in
  let t = Flow_tracker.create ~obs:obs_n ~config ~now () in
  let tick_at time =
    clock := time;
    Ref.tick r;
    Flow_tracker.tick t
  in
  Ref.observe_syn r ~flow:1 ~pool:(-1);
  Flow_tracker.observe_syn t ~flow:1 ~pool:(-1);
  for i = 1 to 112 do
    tick_at (0.05 *. float_of_int i)
  done;
  tick_at 5.62;
  clock := 5.9;
  Ref.observe_syn r ~flow:1 ~pool:(-1);
  Flow_tracker.observe_syn t ~flow:1 ~pool:(-1);
  clock := 5.95;
  let p = mk_data ~flow:1 ~seq:0 () in
  ignore (Ref.observe_data r p);
  ignore (Flow_tracker.observe_data t p);
  Alcotest.(check (float 0.0)) "epoch cut to the floor" 0.05
    (Flow_tracker.epoch_len t ~flow:1);
  tick_at 7.21;
  tick_at 7.25;
  List.iter2
    (fun x y -> Alcotest.(check string) "same as the reference" x y)
    (ref_view ~flows:2 r obs_r) (new_view ~flows:2 t obs_n)

(* Ten thousand flows churn through idle expiry, a hundred at a time:
   vacated slots are reused, so the tracker's footprint after the last
   wave is what one wave left, and no forgotten flow stays reachable
   from the slab (each would hold tens of words). *)
let test_tracker_churn_memory_flat () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let churn waves =
    let clock = ref 0.0 in
    let config =
      {
        (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
        Taq_config.flow_idle_timeout = 2.0;
      }
    in
    let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
    let fresh = words t in
    for wave = 0 to waves - 1 do
      for i = 0 to 99 do
        ignore
          (Flow_tracker.observe_data t (mk_data ~flow:((wave * 100) + i) ~seq:0 ()))
      done;
      clock := !clock +. 3.0;
      Flow_tracker.tick t
    done;
    Alcotest.(check int) "all expired" 0 (Flow_tracker.tracked_flow_count t);
    (fresh, words t)
  in
  let fresh, one = churn 1 and _, many = churn 100 in
  Alcotest.(check int) "10^4 churned flows leave what 100 do" one many;
  (* 128 slots: a few words per slot in the slab, heap and list arrays. *)
  let bound = fresh + (16 * 128) in
  if many > bound then
    Alcotest.failf "tracker holds %d words after churn, bound %d" many bound

let test_tracker_clock_monotone () =
  let t, clock = tracker_fixture () in
  clock := 1.0;
  ignore (Flow_tracker.observe_data t (mk_data ~seq:0 ()));
  Alcotest.(check bool) "forward" true (Flow_tracker.clock_monotone t);
  clock := 0.5;
  ignore (Flow_tracker.active_flow_count t);
  Alcotest.(check bool) "went back" false (Flow_tracker.clock_monotone t)

(* --- Fair share ---------------------------------------------------------------- *)

let test_fair_share_basic () =
  let t, _clock = tracker_fixture () in
  Alcotest.(check (float 1e-9)) "zero flows get everything" 1e6
    (Flow_tracker.fair_share_bps t);
  for flow = 1 to 4 do
    ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()))
  done;
  Alcotest.(check (float 1e-9)) "equal split" 250_000.0
    (Flow_tracker.fair_share_bps t)

(* --- Taq_queues ----------------------------------------------------------------- *)

let queues_fixture () =
  let clock = [| 0.0 |] in
  let config = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  (Taq_queues.create ~config ~clock, clock)

let test_queues_recovery_priority_order () =
  let q, clock = queues_fixture () in
  clock.(0) <- 10.0;  (* let the token bucket fill *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:5 (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:3 (mk_data ~flow:3 ());
  let order = List.init 3 (fun _ ->
      match Taq_queues.dequeue q with
      | Some p -> p.Packet.flow
      | None -> -1)
  in
  Alcotest.(check (list int)) "longest silence first" [ 2; 3; 1 ] order

let test_queues_recovery_beats_everything () =
  let q, clock = queues_fixture () in
  clock.(0) <- 10.0;
  Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ~flow:3 ());
  match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "recovery first" 3 p.Packet.flow
  | None -> Alcotest.fail "empty"

let test_queues_above_served_last () =
  let q, clock = queues_fixture () in
  clock.(0) <- 10.0;
  Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ~flow:9 ());
  Taq_queues.enqueue q Taq_queues.New_flow ~priority:0 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Over_penalized ~priority:0 (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~flow:3 ());
  let flows = List.init 4 (fun _ ->
      match Taq_queues.dequeue q with
      | Some p -> p.Packet.flow
      | None -> -1)
  in
  Alcotest.(check int) "above-fair-share drains last" 9 (List.nth flows 3)

let test_queues_token_bucket_limits_recovery () =
  (* With empty tokens and a competing level-2 queue, recovery defers. *)
  let q, clock = queues_fixture () in
  clock.(0) <- 10.0;
  (* Drain the bucket (burst = max(3000, 0.25 * rate) = 7812 bytes at
     1 Mbps / share 0.25) with a first big recovery packet... *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ~flow:1 ~size:6000 ());
  ignore (Taq_queues.dequeue q);
  (* ...then immediately offer recovery vs below-fair-share. *)
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ~flow:2 ~size:6000 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~flow:3 ());
  (match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "level 2 served while bucket empty" 3 p.Packet.flow
  | None -> Alcotest.fail "empty");
  (* Work conservation: recovery still drains when it is all there is. *)
  match Taq_queues.dequeue q with
  | Some p -> Alcotest.(check int) "work conserving" 2 p.Packet.flow
  | None -> Alcotest.fail "empty"

let test_queues_victim_selection () =
  let q, clock = queues_fixture () in
  clock.(0) <- 10.0;
  Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ~flow:1 ());
  Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~flow:2 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ~flow:3 ());
  Alcotest.(check bool) "above is victim" true
    (Taq_queues.select_victim q = Some Taq_queues.Above_fair_share);
  ignore (Taq_queues.drop_from q Taq_queues.Above_fair_share);
  Alcotest.(check bool) "then level 2" true
    (Taq_queues.select_victim q = Some Taq_queues.Below_fair_share);
  ignore (Taq_queues.drop_from q Taq_queues.Below_fair_share);
  Alcotest.(check bool) "recovery only as last resort" true
    (Taq_queues.select_victim q = Some Taq_queues.Recovery)

let test_queues_accounting () =
  let q, _clock = queues_fixture () in
  Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~size:100 ());
  Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ~size:200 ());
  Alcotest.(check int) "packets" 2 (Taq_queues.total_packets q);
  Alcotest.(check int) "bytes" 300 (Taq_queues.total_bytes q);
  ignore (Taq_queues.dequeue q);
  ignore (Taq_queues.dequeue q);
  Alcotest.(check int) "drained" 0 (Taq_queues.total_packets q);
  Alcotest.(check int) "no bytes" 0 (Taq_queues.total_bytes q)

let test_queues_pushout_tie_break () =
  (* Push-out takes the newest packet of the fattest flow. Between
     equally fat flows the winner is the one a polymorphic Hashtbl of
     16 initial buckets lists first once it holds the ring's flows:
     with two flows, flow 4 before flow 1 ([Hashtbl.hash] modulo 16
     puts them in buckets 7 and 11; modulo 64, in 55 and 27). With 70
     flows the table has grown to 64 buckets, and flow 125 (bucket 0)
     wins; at 16 buckets flow 155 would. Pinned because every golden
     depends on it, and again after that larger push-out. *)
  let q, _clock = queues_fixture () in
  let below = Taq_queues.Below_fair_share in
  let rec drain acc =
    match Taq_queues.dequeue q with
    | Some (p : Packet.t) -> drain (p.flow :: acc)
    | None -> List.rev acc
  in
  let tie round =
    List.iteri
      (fun seq flow -> Taq_queues.enqueue q below ~priority:0 (mk_data ~flow ~seq ()))
      [ 1; 4; 1; 4 ];
    (match Taq_queues.drop_from q below with
    | Some p ->
        Alcotest.(check int) (round ^ ": victim flow") 4 p.Packet.flow;
        Alcotest.(check int) (round ^ ": its newest packet") 3 p.Packet.seq
    | None -> Alcotest.fail "no victim");
    Alcotest.(check (list int)) (round ^ ": the rest keep their order") [ 1; 4; 1 ]
      (drain [])
  in
  tie "fresh";
  for flow = 100 to 169 do
    Taq_queues.enqueue q below ~priority:0 (mk_data ~flow ())
  done;
  (match Taq_queues.drop_from q below with
  | Some p -> Alcotest.(check int) "70 flows: victim flow" 125 p.Packet.flow
  | None -> Alcotest.fail "no victim");
  Alcotest.(check int) "one of 70 pushed out" 69 (List.length (drain []));
  tie "after growth"

(* A retransmission that ranks last appends, and push-out takes the
   tail: neither walks or copies the queue, and only [drop_from]'s
   [Some] allocates. The sorted list cost 110 words at depth 10 and 920
   at depth 100; the ring cost 6 at both while each push-out built a
   closure. *)
let test_queues_recovery_cost_flat () =
  let cost depth =
    let q, _clock = queues_fixture () in
    let p = mk_data () in
    let round () =
      Taq_queues.enqueue q Taq_queues.Recovery ~priority:0 p;
      ignore (Taq_queues.drop_from q Taq_queues.Recovery)
    in
    for _ = 1 to depth do
      Taq_queues.enqueue q Taq_queues.Recovery ~priority:0 p
    done;
    round ();
    let before = Gc.minor_words () in
    round ();
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "depth 10: drop_from's Some" 2.0 (cost 10);
  Alcotest.(check (float 0.0)) "depth 100: drop_from's Some" 2.0 (cost 100)

(* --- Taq_queues against the sorted-list reference ------------------------------ *)

(* [Taq_queues_ref] keeps the Recovery class as a sorted list. Both are
   driven with the same operations on the same clock; every packet
   served or pushed out, and every length and byte count, must agree. *)

module Qref = Taq_queues_ref

type queue_op =
  | Enq of int * int * int  (** class index, priority, size *)
  | Deq
  | Victim  (** push out from the class [select_victim] names *)
  | Drop_from of int
  | Wait of float

let show_queue_op = function
  | Enq (c, p, sz) -> Printf.sprintf "enq %d p%d %dB" c p sz
  | Deq -> "deq"
  | Victim -> "victim"
  | Drop_from c -> Printf.sprintf "drop_from %d" c
  | Wait dt -> Printf.sprintf "wait %g" dt

(* Few priorities, so ties are common; packets of up to 6 kB against a
   7.8 kB bucket, and waits of zero to 50 ms, so dequeues meet the
   bucket full and empty. The recovery-heavy mix wraps and grows the
   Recovery ring. The FIFO-heavy mix files four in five packets into
   the FIFO classes and enqueues faster than it serves, so their rings
   wrap, then grow past 16 cells, and push-outs choose among many
   flows. *)
let gen_queue_op ~fifo_heavy =
  let open QCheck.Gen in
  let cls, enq, deq =
    if fifo_heavy then (frequency [ (1, return 0); (4, int_range 1 4) ], 10, 3)
    else (frequency [ (3, return 0); (2, int_range 1 4) ], 6, 4)
  in
  frequency
    [
      ( enq,
        map3
          (fun c p sz -> Enq (c, p, sz))
          cls (int_bound 3)
          (oneofl [ 40; 500; 1500; 6000 ]) );
      (deq, return Deq);
      (2, return Victim);
      (1, map (fun c -> Drop_from c) (int_bound 4));
      (2, map (fun dt -> Wait dt) (oneofl [ 0.0; 0.001; 0.05 ]));
    ]

let arb_queue_run ~fifo_heavy =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
    QCheck.Gen.(list_size (int_range 1 400) (gen_queue_op ~fifo_heavy))

(* The [n]-th packet enqueued belongs to flow [n mod flows]. *)
let run_queue_diff ~flows ops =
  let clock = [| 0.0 |] in
  let config = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  let now () = clock.(0) in
  let r = Qref.create ~config ~now and q = Taq_queues.create ~config ~clock in
  let classes = Array.of_list Taq_queues.all_classes
  and ref_classes = Array.of_list Qref.all_classes in
  let seq = ref 0 in
  let tag = function
    | None -> "none"
    | Some (p : Packet.t) -> Printf.sprintf "%d#%d" p.flow p.seq
  in
  let same step what a b =
    if a <> b then QCheck.Test.fail_reportf "op %d, %s: ref %s, new %s" step what a b
  in
  List.iteri
    (fun step op ->
      (match op with
      | Enq (c, prio, size) ->
          incr seq;
          let p = mk_data ~flow:(!seq mod flows) ~seq:!seq ~size () in
          Qref.enqueue r ref_classes.(c) ~priority:(float_of_int prio) p;
          Taq_queues.enqueue q classes.(c) ~priority:prio p
      | Deq -> same step "dequeue" (tag (Qref.dequeue r)) (tag (Taq_queues.dequeue q))
      | Victim -> (
          let a = Option.map Qref.class_index (Qref.select_victim r)
          and b = Option.map Taq_queues.class_index (Taq_queues.select_victim q) in
          same step "victim class"
            (Option.fold ~none:"none" ~some:string_of_int a)
            (Option.fold ~none:"none" ~some:string_of_int b);
          match b with
          | Some c ->
              same step "push-out"
                (tag (Qref.drop_from r ref_classes.(c)))
                (tag (Taq_queues.drop_from q classes.(c)))
          | None -> ())
      | Drop_from c ->
          same step "drop_from"
            (tag (Qref.drop_from r ref_classes.(c)))
            (tag (Taq_queues.drop_from q classes.(c)))
      | Wait dt -> clock.(0) <- clock.(0) +. dt);
      Array.iteri
        (fun i cls ->
          same step
            (Taq_queues.class_to_string cls ^ " length/bytes")
            (Printf.sprintf "%d/%d" (Qref.class_length r ref_classes.(i))
               (Qref.class_bytes r ref_classes.(i)))
            (Printf.sprintf "%d/%d" (Taq_queues.class_length q cls)
               (Taq_queues.class_bytes q cls)))
        classes;
      same step "totals"
        (Printf.sprintf "%d/%d" (Qref.total_packets r) (Qref.total_bytes r))
        (Printf.sprintf "%d/%d" (Taq_queues.total_packets q) (Taq_queues.total_bytes q));
      if not (Taq_queues.recovery_sorted q) then
        QCheck.Test.fail_reportf "op %d: recovery out of order" step)
    ops;
  (* Drain both: the same packets leave in the same order. *)
  let rec drain n =
    let a = tag (Qref.dequeue r) and b = tag (Taq_queues.dequeue q) in
    same n "drain" a b;
    if b <> "none" then drain (n + 1)
  in
  drain (List.length ops);
  true

let prop_queues_match_reference =
  QCheck.Test.make ~name:"taq queues = sorted-list reference" ~count:300
    (arb_queue_run ~fifo_heavy:false) (run_queue_diff ~flows:3)

let prop_queues_match_reference_fifo =
  QCheck.Test.make ~name:"taq queues = sorted-list reference, FIFO-heavy, 7 flows"
    ~count:300 (arb_queue_run ~fifo_heavy:true) (run_queue_diff ~flows:7)

(* One FIFO class holding 1 to 150 flows of 1 to 3 packets each, in a
   random order, pushed out until empty: each victim must be the
   reference's. Past 32 distinct flows the tie-break reads a table of
   more than 16 buckets. Flow ids are spaced by a random stride, so
   ids that share their low bits collide in the push-out's count. *)
let arb_pushout_run =
  let open QCheck.Gen in
  let gen =
    int_range 1 150 >>= fun n ->
    int_range 1 4 >>= fun cls ->
    oneofl [ 1; 2; 16; 64; 97 ] >>= fun stride ->
    int_bound 1000 >>= fun base ->
    list_repeat n (int_range 1 3) >>= fun counts ->
    let packets =
      List.concat
        (List.mapi (fun i c -> List.init c (fun _ -> base + (i * stride))) counts)
    in
    map (fun order -> (cls, order)) (shuffle_l packets)
  in
  QCheck.make
    ~print:(fun (cls, order) ->
      Printf.sprintf "class %d: %s" cls
        (String.concat " " (List.map string_of_int order)))
    gen

let run_pushout_diff (cls, order) =
  let config = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  let now () = 0.0 in
  let r = Qref.create ~config ~now
  and q = Taq_queues.create ~config ~clock:[| 0.0 |] in
  let c = (Array.of_list Taq_queues.all_classes).(cls)
  and rc = (Array.of_list Qref.all_classes).(cls) in
  List.iteri
    (fun seq flow ->
      let p = mk_data ~flow ~seq () in
      Qref.enqueue r rc ~priority:0.0 p;
      Taq_queues.enqueue q c ~priority:0 p)
    order;
  let tag = function
    | None -> "none"
    | Some (p : Packet.t) -> Printf.sprintf "%d#%d" p.flow p.seq
  in
  List.iteri
    (fun i _ ->
      let a = tag (Qref.drop_from r rc) and b = tag (Taq_queues.drop_from q c) in
      if a <> b then
        QCheck.Test.fail_reportf "push-out %d of %d: ref %s, new %s" (i + 1)
          (List.length order) a b)
    order;
  Taq_queues.total_packets q = 0

let prop_pushout_tie_break_matches_reference =
  QCheck.Test.make ~name:"push-out victims = reference, 1 to 150 flows"
    ~count:200 arb_pushout_run run_pushout_diff

(* --- Admission ------------------------------------------------------------------- *)

let admission_fixture () =
  let clock = [| 0.0 |] in
  let a = Admission.create ~config:{ Taq_config.pthresh = 0.1 } ~clock in
  (a, clock)

let test_admission_low_loss_admits () =
  let a, _clock = admission_fixture () in
  for _ = 1 to 100 do
    Admission.note_arrival a
  done;
  Alcotest.(check bool) "admitted" true (Admission.on_syn a ~key:1 = Admission.Admitted)

let test_admission_high_loss_rejects_new () =
  let a, _clock = admission_fixture () in
  (* Sustained 50% loss pushes the EWMA far above pthresh. *)
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  Alcotest.(check bool) "loss rate high" true (Admission.loss_rate a > 0.1);
  Alcotest.(check bool) "rejected" true (Admission.on_syn a ~key:1 = Admission.Rejected)

let test_admission_admitted_pool_stays () =
  let a, _clock = admission_fixture () in
  Alcotest.(check bool) "first admit" true
    (Admission.on_syn a ~key:7 = Admission.Admitted);
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  (* Pool 7 was admitted before the congestion: its later flows pass. *)
  Alcotest.(check bool) "pool keeps its admission" true
    (Admission.on_syn a ~key:7 = Admission.Admitted)

let test_admission_t_wait_guarantee () =
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  Alcotest.(check bool) "rejected initially" true
    (Admission.on_syn a ~key:9 = Admission.Rejected);
  clock.(0) <- clock.(0) +. Admission.t_wait +. 0.1;
  Alcotest.(check bool) "admitted after t_wait" true
    (Admission.on_syn a ~key:9 = Admission.Admitted)

let test_admission_pool_expiry () =
  let a, clock = admission_fixture () in
  ignore (Admission.on_syn a ~key:3);
  Alcotest.(check int) "one admitted" 1 (Admission.admitted_count a);
  clock.(0) <- 1000.0;
  Admission.expire a;
  Alcotest.(check int) "expired" 0 (Admission.admitted_count a)


(* Whether a new pool [key] heads the Twait FIFO, under a loss rate
   above threshold: rejected at first, it is admitted once Twait has
   passed only if no pool waits ahead of it. *)
let first_in_line a clock ~key =
  ignore (Admission.on_syn a ~key);
  clock.(0) <- clock.(0) +. Admission.t_wait +. 0.1;
  Admission.on_syn a ~key = Admission.Admitted

let test_admission_waiting_expiry () =
  (* A client that never retries its SYN must not occupy the waiting
     table (and block the Twait FIFO head) forever. *)
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  ignore (Admission.on_syn a ~key:1);
  ignore (Admission.on_syn a ~key:2);
  Alcotest.(check int) "two waiting" 2 (Admission.waiting_count a);
  clock.(0) <- clock.(0) +. Admission.pool_expiry +. 1.0;
  Admission.expire a;
  Alcotest.(check int) "waiting pruned" 0 (Admission.waiting_count a);
  Alcotest.(check bool) "Twait FIFO pruned too" true
    (first_in_line a clock ~key:3)

let test_admission_shed_waiting () =
  let a, clock = admission_fixture () in
  for _ = 1 to 2000 do
    Admission.note_arrival a;
    Admission.note_drop a
  done;
  for key = 1 to 5 do
    ignore (Admission.on_syn a ~key)
  done;
  Alcotest.(check int) "five waiting" 5 (Admission.waiting_count a);
  Admission.shed_waiting a;
  Alcotest.(check int) "all shed" 0 (Admission.waiting_count a);
  Alcotest.(check bool) "FIFO empty" true (first_in_line a clock ~key:6)

(* --- Admission against the walking reference ------------------------------------ *)

(* [Admission_ref] is the controller before its O(1) bookkeeping. Both
   are driven with the same operations on the same clock; after each
   one, every decision, count and the loss rate must agree, the loss
   rate to the bit. *)

module Adm_ref = Admission_ref

(* Four pools and two pool-less flows, as [Taq_disc.pool_key] maps
   them. *)
let adm_keys = [| 0; 1; 2; 7; -3; -10 |]

type admission_op =
  | A_syn of int  (** index into [adm_keys] *)
  | A_touch of int
  | A_burst of bool * int  (** that many drops (true) or arrivals *)
  | A_expire
  | A_shed
  | A_step of float
  | A_land of int * int * int * int
      (** Set the clock onto a time of a pool — 0: its admission's
          [last + pool_expiry], 1: its wait's [first + pool_expiry], 2:
          its wait's [first + t_wait] — moved by -1, 0 or +1 ulp; then
          0: nothing, 1: expire, 2: its SYN. *)

let show_admission_op = function
  | A_syn k -> Printf.sprintf "syn %d" adm_keys.(k)
  | A_touch k -> Printf.sprintf "touch %d" adm_keys.(k)
  | A_burst (drop, n) -> Printf.sprintf "%d %s" n (if drop then "drops" else "arrivals")
  | A_expire -> "expire"
  | A_shed -> "shed"
  | A_step dt -> Printf.sprintf "step %h" dt
  | A_land (k, at, u, next) ->
      Printf.sprintf "land %d %s%+d%s" adm_keys.(k)
        (match at with 0 -> "last+expiry" | 1 -> "first+expiry" | _ -> "first+t_wait")
        u
        (match next with 0 -> "" | 1 -> " expire" | _ -> " syn")

(* Drop bursts of up to 40 lift the loss rate over 0.08 from zero, and
   arrival bursts of up to 600 bring it back from one. *)
let gen_admission_op =
  let open QCheck.Gen in
  let key = int_bound (Array.length adm_keys - 1) in
  frequency
    [
      (6, map (fun k -> A_syn k) key);
      (4, map (fun k -> A_touch k) key);
      (2, map (fun n -> A_burst (true, n)) (int_range 1 40));
      (2, map (fun n -> A_burst (false, n)) (int_range 1 600));
      (3, return A_expire);
      (1, return A_shed);
      ( 4,
        map
          (fun dt -> A_step dt)
          (oneof
             [ float_bound_inclusive 0.5; float_range 0.5 3.0;
               float_range 3.0 70.0 ]) );
      ( 5,
        map4
          (fun k at u next -> A_land (k, at, u, next))
          key (int_bound 2) (int_range (-1) 1) (int_bound 2) );
    ]

let arb_admission_run =
  QCheck.make
    ~print:(fun (start, ops) ->
      Printf.sprintf "start %h: %s" start
        (String.concat "; " (List.map show_admission_op ops)))
    QCheck.Gen.(
      pair
        (oneofl [ 0.0; 997.3; 12_000.0 ])
        (list_size (int_range 1 300) gen_admission_op))

(* Where an [A_land] puts the clock, read off the reference. *)
let admission_land_target r ~key ~at ~ulps =
  let tbl, offset =
    match at with
    | 0 -> (r.Adm_ref.admitted, Adm_ref.pool_expiry)
    | 1 -> (r.Adm_ref.waiting, Adm_ref.pool_expiry)
    | _ -> (r.Adm_ref.waiting, Adm_ref.t_wait)
  in
  Option.map
    (fun time -> nudge (time +. offset) ~ulps)
    (Hashtbl.find_opt tbl key)

let run_admission_diff (start, ops) =
  let clock = [| start |] in
  let now () = clock.(0) in
  let config = { Taq_config.pthresh = 0.1 } in
  let r = Adm_ref.create ~config ~now and a = Admission.create ~config ~clock in
  let syn step key =
    let x = Adm_ref.on_syn r ~key = Adm_ref.Admitted
    and y = Admission.on_syn a ~key = Admission.Admitted in
    if x <> y then
      QCheck.Test.fail_reportf "op %d: syn %d: ref admitted=%b, new admitted=%b"
        step key x y
  in
  let expire () =
    Adm_ref.expire r;
    Admission.expire a
  in
  let compare step =
    let view admitted waiting loss =
      Printf.sprintf "admitted=%d waiting=%d loss=%h" admitted waiting loss
    in
    let x =
      view (Adm_ref.admitted_count r) (Adm_ref.waiting_count r)
        (Adm_ref.loss_rate r)
    and y =
      view (Admission.admitted_count a) (Admission.waiting_count a)
        (Admission.loss_rate a)
    in
    if x <> y then
      QCheck.Test.fail_reportf "after op %d:\n  ref: %s\n  new: %s" step x y
  in
  List.iteri
    (fun step op ->
      (match op with
      | A_syn k -> syn step adm_keys.(k)
      | A_touch k ->
          Adm_ref.touch r ~key:adm_keys.(k);
          Admission.touch a ~key:adm_keys.(k)
      | A_burst (drop, n) ->
          for _ = 1 to n do
            if drop then begin
              Adm_ref.note_drop r;
              Admission.note_drop a
            end
            else begin
              Adm_ref.note_arrival r;
              Admission.note_arrival a
            end
          done
      | A_expire -> expire ()
      | A_shed ->
          Adm_ref.shed_waiting r;
          Admission.shed_waiting a
      | A_step dt -> clock.(0) <- clock.(0) +. dt
      | A_land (k, at, ulps, next) -> (
          let key = adm_keys.(k) in
          match admission_land_target r ~key ~at ~ulps with
          | Some time when time >= clock.(0) -> (
              clock.(0) <- time;
              match next with 0 -> () | 1 -> expire () | _ -> syn step key)
          | Some _ | None -> ()));
      compare step)
    ops;
  true

let prop_admission_matches_reference =
  QCheck.Test.make ~name:"admission = walking reference, every op" ~count:500
    arb_admission_run run_admission_diff

(* --- Flow_tracker cap --------------------------------------------------------------- *)

let capped_tracker_fixture ~cap () =
  let clock = ref 0.0 in
  let config =
    Taq_config.with_guard ~max_tracked_flows:cap
      {
        (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
        Taq_config.epoch_source = Taq_config.Oracle 0.2;
      }
  in
  let t = Flow_tracker.create ~config ~now:(fun () -> !clock) () in
  (t, clock)

let test_tracker_cap_never_exceeded () =
  let t, clock = capped_tracker_fixture ~cap:4 () in
  for flow = 1 to 12 do
    clock := !clock +. 0.01;
    ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ()));
    Alcotest.(check bool) "tracked <= cap" true
      (Flow_tracker.tracked_flow_count t <= 4)
  done;
  Alcotest.(check int) "peak is the cap" 4 (Flow_tracker.peak_tracked t);
  Alcotest.(check int) "evictions counted" 8 (Flow_tracker.cap_evictions t)

let test_tracker_cap_evicts_lru () =
  let t, clock = capped_tracker_fixture ~cap:3 () in
  (* Flows 1..3 fill the table; flow 1 is then refreshed, so flow 2 is
     the least recently seen when flow 4 arrives. *)
  List.iter
    (fun flow ->
      clock := !clock +. 0.1;
      ignore (Flow_tracker.observe_data t (mk_data ~flow ~seq:0 ())))
    [ 1; 2; 3 ];
  clock := !clock +. 0.1;
  ignore (Flow_tracker.observe_data t (mk_data ~flow:1 ~seq:1 ()));
  clock := !clock +. 0.1;
  ignore (Flow_tracker.observe_data t (mk_data ~flow:4 ~seq:0 ()));
  Alcotest.(check int) "still at cap" 3 (Flow_tracker.tracked_flow_count t);
  (* Flow 2's state is gone: its next packet classes as a brand-new
     flow (seq 0 already seen would otherwise read as a repeat). *)
  Alcotest.(check bool) "victim was the LRU flow" true
    (Flow_tracker.observe_data t (mk_data ~flow:2 ~seq:0 ())
    = Flow_tracker.New_data)

(* --- Overload guard ----------------------------------------------------------------- *)

type guard_rig = {
  g : Overload.t;
  clock : float ref;
  mutable evictions : int;  (* the tracker's cumulative cap evictions *)
}

let guard_fixture () =
  let clock = ref 0.0 in
  let g = Overload.create ~cap:8 ~now:(fun () -> !clock) () in
  { g; clock; evictions = 0 }

(* Step the fake clock in 50 ms increments for [until] seconds, with a
   fresh cap eviction at every sample when [pressure] is on and
   [waiting] pools in admission's wait queue. *)
let drive ?(waiting = 0) r ~pressure ~until =
  let base = !(r.clock) in
  while !(r.clock) -. base < until -. 1e-9 do
    r.clock := !(r.clock) +. 0.05;
    if pressure then r.evictions <- r.evictions + 1;
    Overload.sample r.g ~tracked:1 ~cap_evictions:r.evictions ~waiting
  done

let check_mode msg want r =
  Alcotest.(check string) msg (Overload.mode_name want)
    (Overload.mode_name (Overload.mode r.g))

let test_guard_trips_only_on_sustained_pressure () =
  let r = guard_fixture () in
  (* A single pressured sample is not sustained: no trip. *)
  drive r ~pressure:true ~until:0.05;
  drive r ~pressure:false ~until:(2.0 *. Overload.min_dwell);
  check_mode "blip ignored" Overload.Normal r;
  (* Churn shorter than trip_after is not sustained either. *)
  drive r ~pressure:true ~until:(Overload.trip_after -. 0.1);
  check_mode "not yet sustained" Overload.Normal r;
  drive r ~pressure:true ~until:0.2;
  check_mode "tripped" Overload.Degraded r;
  Alcotest.(check int) "entered once" 1 (Overload.degraded_entered r.g)

let test_guard_full_arc_and_dwells () =
  let r = guard_fixture () in
  (* Pressure sustained past trip_after still waits out the min_dwell
     floor of the starting mode. *)
  drive r ~pressure:true ~until:(Overload.trip_after +. 0.25);
  check_mode "inside the dwell floor" Overload.Normal r;
  drive r ~pressure:true ~until:Overload.min_dwell;
  check_mode "degraded" Overload.Degraded r;
  (* The exit begins only after clear_after of calm. *)
  drive r ~pressure:false ~until:(Overload.clear_after -. 0.2);
  check_mode "still degraded inside clear_after" Overload.Degraded r;
  drive r ~pressure:false ~until:0.5;
  check_mode "recovering" Overload.Recovering r;
  (* Normal again after the recovery dwell. *)
  drive r ~pressure:false ~until:(Overload.recovery_dwell +. 0.5);
  check_mode "normal again" Overload.Normal r;
  Alcotest.(check int) "one full cycle" 1 (Overload.degraded_exited r.g)

let test_guard_recovering_retrips () =
  let r = guard_fixture () in
  drive r ~pressure:true ~until:(Overload.min_dwell +. 0.5);
  (* Calm long enough to reach Recovering but not long enough to
     complete the recovery dwell. *)
  drive r ~pressure:false ~until:(Overload.clear_after +. 0.3);
  check_mode "recovering" Overload.Recovering r;
  (* Pressure during recovery sends it straight back once the dwell
     floor is met — no need to re-sustain trip_after. *)
  drive r ~pressure:true ~until:(Overload.min_dwell +. 0.2);
  check_mode "re-degraded" Overload.Degraded r;
  Alcotest.(check int) "entered twice" 2 (Overload.degraded_entered r.g)

let test_guard_waiting_backlog_is_pressure () =
  let r = guard_fixture () in
  drive r ~pressure:false ~waiting:(Overload.waiting_high - 1) ~until:1.5;
  check_mode "a backlog below waiting_high is calm" Overload.Normal r;
  drive r ~pressure:false ~waiting:Overload.waiting_high ~until:1.5;
  check_mode "admission backlog trips the guard" Overload.Degraded r

let test_config_guard_validation () =
  let base = Taq_config.default ~capacity_pkts:10 ~capacity_bps:1e6 in
  Alcotest.(check bool) "cap < 1 rejected" true
    (match Taq_config.with_guard ~max_tracked_flows:0 base with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let ok = Taq_config.with_guard ~max_tracked_flows:16 base in
  Alcotest.(check int) "cap installed" 16 ok.Taq_config.max_tracked_flows;
  Alcotest.(check bool) "guard installed" true ok.Taq_config.guard

(* --- Taq_disc (unit) ---------------------------------------------------------------- *)

let disc_fixture ?(capacity_pkts = 10) ?(admission = false) () =
  let sim = Sim.create () in
  let base =
    if admission then Taq_config.with_admission ~capacity_pkts ~capacity_bps:1e6
    else Taq_config.default ~capacity_pkts ~capacity_bps:1e6
  in
  let config = { base with Taq_config.epoch_source = Taq_config.Oracle 0.2 } in
  let t = Taq_disc.create ~sim ~config () in
  (t, sim)

let test_disc_accepts_and_serves () =
  let t, _sim = disc_fixture () in
  let d = Taq_disc.disc t in
  Alcotest.(check int) "accepted" 0 (List.length (d.Disc.enqueue (mk_data ~seq:0 ())));
  match d.Disc.dequeue () with
  | Some p -> Alcotest.(check int) "served" 0 p.Packet.seq
  | None -> Alcotest.fail "should serve the packet"

let test_disc_pushout_prefers_low_priority () =
  let t, sim = disc_fixture ~capacity_pkts:4 () in
  let d = Taq_disc.disc t in
  (* Age flow 99 out of the new-flow phase and make it a hog so its
     packets class as above-fair-share; keep its packets filling the
     buffer; then a retransmission from flow 1 must push one out. *)
  ignore sim;
  let seq = ref 0 in
  for _ = 1 to 200 do
    incr seq;
    ignore (d.Disc.enqueue (mk_data ~flow:99 ~seq:!seq ()));
    if Taq_queues.total_packets (Taq_disc.queues t) > 3 then
      ignore (d.Disc.dequeue ())
  done;
  (* Flow 1: seen once, then retransmits (seq repeat). *)
  ignore (d.Disc.enqueue (mk_data ~flow:1 ~seq:5 ()));
  (* Fill to capacity with hog packets. *)
  while Taq_queues.total_packets (Taq_disc.queues t) < 4 do
    incr seq;
    ignore (d.Disc.enqueue (mk_data ~flow:99 ~seq:!seq ()))
  done;
  let arrival = mk_data ~flow:1 ~seq:5 () in
  let drops = d.Disc.enqueue arrival in
  (match drops with
  | [ victim ] ->
      (* The retransmission itself must survive; the victim is a
         queued lower-priority packet (possibly of the same flow). *)
      Alcotest.(check bool) "retransmission not the victim" true
        (victim.Packet.uid <> arrival.Packet.uid)
  | _ -> Alcotest.failf "expected one victim, got %d" (List.length drops));
  Alcotest.(check int) "retransmission queued in recovery" 1
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Recovery);
  Alcotest.(check int) "buffer still full" 4
    (Taq_queues.total_packets (Taq_disc.queues t))

let test_disc_syn_rejected_under_admission_pressure () =
  let t, _sim = disc_fixture ~capacity_pkts:10 ~admission:true () in
  let d = Taq_disc.disc t in
  (match Taq_disc.admission t with
  | Some a ->
      for _ = 1 to 2000 do
        Admission.note_arrival a;
        Admission.note_drop a
      done
  | None -> Alcotest.fail "admission expected");
  let drops = d.Disc.enqueue (mk_syn ~flow:50 ~pool:5 ()) in
  Alcotest.(check int) "syn dropped" 1 (List.length drops);
  let st = Taq_disc.stats t in
  Alcotest.(check int) "counted as admission reject" 1
    st.Taq_disc.admission_rejected

let test_disc_syn_admitted_when_clear () =
  let t, _sim = disc_fixture ~capacity_pkts:10 ~admission:true () in
  let d = Taq_disc.disc t in
  let drops = d.Disc.enqueue (mk_syn ~flow:50 ~pool:5 ()) in
  Alcotest.(check int) "syn accepted" 0 (List.length drops)

(* Admission's loss signal counts every packet that reaches the buffer,
   SYNs included: after a drop, an admitted SYN lowers the loss rate,
   while a SYN that admission rejects never reaches the buffer and
   leaves it as it was. *)
let test_disc_admission_loss_signal () =
  let t, _sim = disc_fixture ~capacity_pkts:10 ~admission:true () in
  let d = Taq_disc.disc t in
  let a =
    match Taq_disc.admission t with
    | Some a -> a
    | None -> Alcotest.fail "admission expected"
  in
  Admission.note_arrival a;
  Admission.note_drop a;
  let after_drop = Admission.loss_rate a in
  Alcotest.(check int) "syn admitted" 0
    (List.length (d.Disc.enqueue (mk_syn ~flow:50 ~pool:5 ())));
  Alcotest.(check bool) "admitted syn lowers the loss rate" true
    (Admission.loss_rate a < after_drop);
  for _ = 1 to 100 do
    Admission.note_drop a
  done;
  let high = Admission.loss_rate a in
  Alcotest.(check int) "syn rejected" 1
    (List.length (d.Disc.enqueue (mk_syn ~flow:51 ~pool:6 ())));
  Alcotest.(check int) "counted as admission reject" 1
    (Taq_disc.stats t).Taq_disc.admission_rejected;
  Alcotest.(check (float 0.0)) "rejected syn leaves the loss rate" high
    (Admission.loss_rate a)

(* The NewFlow queue holds a quarter of the buffer, at least 2 packets.
   A SYN past that cap is dropped; a young flow's data goes to
   BelowFairShare instead. *)
let test_disc_newflow_cap_follows_capacity () =
  List.iter
    (fun (capacity_pkts, cap) ->
      let t, _sim = disc_fixture ~capacity_pkts () in
      let d = Taq_disc.disc t in
      let length cls = Taq_queues.class_length (Taq_disc.queues t) cls in
      let msg what = Printf.sprintf "%s (capacity %d)" what capacity_pkts in
      for flow = 1 to cap do
        Alcotest.(check int) (msg "syn queued") 0
          (List.length (d.Disc.enqueue (mk_syn ~flow ())))
      done;
      Alcotest.(check int) (msg "syn past the cap dropped") 1
        (List.length (d.Disc.enqueue (mk_syn ~flow:(cap + 1) ())));
      Alcotest.(check (list (pair string int))) (msg "counted as a new-flow drop")
        [ (Taq_queues.class_to_string Taq_queues.New_flow, 1) ]
        (List.map
           (fun (cls, n) -> (Taq_queues.class_to_string cls, n))
           (Taq_disc.stats t).Taq_disc.drops_by_class);
      Alcotest.(check bool) (msg "flow 1 still young") true
        (Flow_tracker.is_new_flow (Taq_disc.tracker t) ~flow:1);
      Alcotest.(check int) (msg "young data accepted") 0
        (List.length (d.Disc.enqueue (mk_data ~flow:1 ~seq:0 ())));
      Alcotest.(check int) (msg "new-flow queue at its cap") cap
        (length Taq_queues.New_flow);
      Alcotest.(check int) (msg "young data below fair share") 1
        (length Taq_queues.Below_fair_share))
    [ (20, 5); (6, 2); (4, 2) ]

let test_disc_conservation () =
  (* enqueued = dequeued + dropped + still queued, under random load. *)
  let t, _sim = disc_fixture ~capacity_pkts:8 () in
  let d = Taq_disc.disc t in
  let prng = Taq_util.Prng.create ~seed:123 in
  let offered = ref 0 and drops = ref 0 and served = ref 0 in
  let seqs = Array.make 10 0 in
  for _ = 1 to 2000 do
    if Int64.logand (Taq_util.Prng.bits64 prng) 1L = 1L then begin
      let flow = Taq_util.Prng.int prng 10 in
      let retx = Taq_util.Prng.bernoulli prng ~p:0.2 in
      let seq =
        if retx && seqs.(flow) > 0 then seqs.(flow) - 1
        else begin
          seqs.(flow) <- seqs.(flow) + 1;
          seqs.(flow) - 1
        end
      in
      incr offered;
      drops := !drops + List.length (d.Disc.enqueue (mk_data ~flow ~seq ()))
    end
    else
      match d.Disc.dequeue () with Some _ -> incr served | None -> ()
  done;
  Alcotest.(check int) "conservation" !offered
    (!served + !drops + d.Disc.length ())

let test_disc_degraded_bypass () =
  let sim = Sim.create () in
  let base = Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6 in
  let config =
    Taq_config.with_guard ~max_tracked_flows:8
      { base with Taq_config.epoch_source = Taq_config.Oracle 0.2 }
  in
  let t = Taq_disc.create ~sim ~config () in
  let d = Taq_disc.disc t in
  (* A churn of brand-new flows, one every 5 ms for 2 s: every arrival
     past the cap evicts an entry, so each guard sample sees fresh
     eviction churn and the guard trips. Dequeues keep the buffer
     drained so drops never muddy the picture. *)
  let flow = ref 100 in
  for i = 0 to 399 do
    Sim.schedule sim
      ~at:(0.005 *. float_of_int i)
      (fun () ->
        incr flow;
        ignore (d.Disc.enqueue (mk_data ~flow:!flow ~seq:0 ()));
        ignore (d.Disc.dequeue ()))
  done;
  Sim.run ~until:3.0 sim;
  (match Taq_disc.guard t with
  | None -> Alcotest.fail "guard expected on this config"
  | Some g ->
      Alcotest.(check bool) "degraded under churn" true (Overload.degraded g));
  Alcotest.(check bool) "tracker stayed bounded" true
    (Flow_tracker.peak_tracked (Taq_disc.tracker t) <= 8);
  (* While degraded, classification is bypassed: a repeat sequence
     (Recovery-class in normal mode) goes FIFO into the base class
     like everything else. *)
  ignore (d.Disc.enqueue (mk_data ~flow:42 ~seq:0 ()));
  ignore (d.Disc.enqueue (mk_data ~flow:42 ~seq:0 ()));
  Alcotest.(check int) "recovery class untouched" 0
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Recovery);
  Alcotest.(check int) "both packets FIFO'd in the base class" 2
    (Taq_queues.class_length (Taq_disc.queues t) Taq_queues.Below_fair_share)

(* The data plane at steady state: 50 flows through a 60-packet buffer
   that two offers and one dequeue per 4 ms step keep full, so every
   other offer meets a full buffer and push-out runs; every seventh
   offer is a retransmission. Admission control is on and every flow's
   pool admitted, so each data packet touches its pool. Packets are
   built up front, and the cost of advancing the clock, measured on an
   empty calendar, is subtracted. What is left per offer:
   [Disc.dequeue]'s [Some], the push-out's [Some] and drop list, and
   the tracker's clock read, which its [now] closure returns boxed:
   5.0 words. The disc's tick check, the token refill and the pool
   touch read [Sim.clock]'s cell; when they read the clock through
   closures as well, an offer cost 11.0 words, and one such read boxed
   again on every dequeue alone adds a word, so the bound is 5.5.
   Without admission, the polymorphic counts table, the epoch
   estimator's and rate average's boxed floats and the repeated flow
   lookups cost 22.8 words; before them, deques of options, boxed
   token and epoch floats, closures and optional arguments cost
   63.6. *)
let test_disc_steady_state_allocation () =
  let flows = 50 and steps = 2_000 in
  let sim = Sim.create () in
  let config = Taq_config.with_admission ~capacity_pkts:60 ~capacity_bps:1e6 in
  let d = Taq_disc.disc (Taq_disc.create ~sim ~config ()) in
  for flow = 0 to flows - 1 do
    ignore (d.Disc.enqueue (mk_syn ~flow ()))
  done;
  let seqs = Array.make flows 0 in
  let packets =
    Array.init (4 * steps) (fun i ->
        let flow = i mod flows in
        if i mod 7 <> 6 then seqs.(flow) <- seqs.(flow) + 1;
        mk_data ~flow ~seq:seqs.(flow) ())
  in
  let drive sim ~first step =
    for i = first to first + steps - 1 do
      Sim.run ~until:(0.004 *. float_of_int i) sim;
      step i
    done
  in
  let step i =
    ignore (d.Disc.enqueue packets.(2 * i));
    ignore (d.Disc.enqueue packets.((2 * i) + 1));
    ignore (d.Disc.dequeue ())
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  drive sim ~first:0 step;
  Alcotest.(check int) "full until the step's dequeue" 59 (d.Disc.length ());
  let total = words (fun () -> drive sim ~first:steps step) in
  let clock = words (fun () -> drive (Sim.create ()) ~first:steps ignore) in
  let per_packet = (total -. clock) /. float_of_int (2 * steps) in
  if per_packet > 5.5 then
    Alcotest.failf "%.1f minor words per packet, bound 5.5" per_packet

(* --- Integration: TAQ vs droptail fairness --------------------------------------- *)

let run_contention ~disc ~sim ~flows ~capacity_bps ~seconds =
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let tcp = Tcp_config.make ~use_syn:false () in
  let slicer = Taq_metrics.Slicer.create ~slice:20.0 in
  let ids = ref [] in
  for _ = 1 to flows do
    let s =
      Tcp_session.create ~net ~config:tcp ~rtt_prop:0.2 ~total_segments:max_int
        ()
    in
    let flow = Tcp_session.flow_id s in
    ids := flow :: !ids;
    Tcp_receiver.on_segment (Tcp_session.receiver s) (fun _ ->
        Taq_metrics.Slicer.record slicer ~flow ~time:(Sim.now sim) ~bytes:500);
    Tcp_session.start s
  done;
  Sim.run ~until:seconds sim;
  let flows_arr = Array.of_list !ids in
  (* Skip the first slice (startup transient). *)
  Taq_metrics.Slicer.mean_jain slicer ~flows:flows_arr ~first:1 ()

let test_taq_beats_droptail_fairness () =
  (* 60 flows over 400 Kbps, 500 B packets, 200 ms RTT: fair share is
     ~1.7 pkt/RTT — squarely in the small packet regime. TAQ must give
     markedly better 20 s Jain fairness than droptail. *)
  let capacity_bps = 400_000.0 and flows = 60 and seconds = 200.0 in
  let dt_jain =
    let sim = Sim.create () in
    let disc = Taq_queueing.Droptail.create ~capacity_pkts:20 in
    run_contention ~disc ~sim ~flows ~capacity_bps ~seconds
  in
  let taq_jain =
    let sim = Sim.create () in
    let config =
      Taq_config.default ~capacity_pkts:20 ~capacity_bps
    in
    let t = Taq_disc.create ~sim ~config () in
    run_contention ~disc:(Taq_disc.disc t) ~sim ~flows ~capacity_bps ~seconds
  in
  Alcotest.(check bool)
    (Printf.sprintf "TAQ %.3f > DT %.3f" taq_jain dt_jain)
    true
    (taq_jain > dt_jain)

let test_taq_preserves_utilization () =
  let capacity_bps = 400_000.0 in
  let sim = Sim.create () in
  let config = Taq_config.default ~capacity_pkts:20 ~capacity_bps in
  let t = Taq_disc.create ~sim ~config () in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc:(Taq_disc.disc t) () in
  let tcp = Tcp_config.make ~use_syn:false () in
  for _ = 1 to 40 do
    Tcp_session.start
      (Tcp_session.create ~net ~config:tcp ~rtt_prop:0.2
         ~total_segments:max_int ())
  done;
  Sim.run ~until:100.0 sim;
  let u = Taq_net.Link.utilization (Dumbbell.link net) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f >= 0.9" u)
    true (u >= 0.9)


let test_taq_idle_persistent_flow_classified_idle () =
  (* A persistent connection that pauses between objects must read as
     Idle at the middlebox (Figure 7's dummy state), not as a timeout
     silence: it had no drops, it simply has nothing to send. *)
  let sim = Sim.create () in
  let config =
    {
      (Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6) with
      Taq_config.epoch_source = Taq_config.Oracle 0.1;
    }
  in
  let taq = Taq_disc.create ~sim ~config () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc:(Taq_disc.disc taq) () in
  let session =
    Taq_workload.Persistent_session.create ~net
      ~tcp:(Tcp_config.make ~use_syn:true ()) ~pool:1 ~rtt:0.1 ~conns:1 ()
  in
  Taq_workload.Persistent_session.start session;
  Taq_workload.Persistent_session.request session ~size:10_000;
  Sim.run ~until:20.0 sim;
  Alcotest.(check int) "object served" 1
    (List.length (Taq_workload.Persistent_session.completed session));
  (* 20 s of silence on a healthy connection. Force the tracker to roll
     the silent epochs. *)
  Flow_tracker.tick (Taq_disc.tracker taq);
  let flow = List.hd (Taq_workload.Persistent_session.flow_ids session) in
  let state = Flow_tracker.state (Taq_disc.tracker taq) ~flow in
  Alcotest.check check_state "idle, not timeout silence" Flow_state.Idle state

let prop_taq_queues_conserve_packets =
  QCheck.Test.make ~name:"taq queues conserve packets under random ops"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 150) (pair (int_range 0 6) (int_range 1 8)))
    (fun ops ->
      let clock = [| 0.0 |] in
      let config = Taq_core.Taq_config.default ~capacity_pkts:100 ~capacity_bps:1e6 in
      let q = Taq_queues.create ~config ~clock in
      let enq = ref 0 and deq = ref 0 and dropped = ref 0 in
      List.iter
        (fun (op, flow) ->
          clock.(0) <- clock.(0) +. 0.01;
          match op with
          | 0 -> Taq_queues.enqueue q Taq_queues.Recovery ~priority:flow
                   (mk_data ~flow ()); incr enq
          | 1 -> Taq_queues.enqueue q Taq_queues.New_flow ~priority:0 (mk_data ~flow ()); incr enq
          | 2 -> Taq_queues.enqueue q Taq_queues.Over_penalized ~priority:0 (mk_data ~flow ()); incr enq
          | 3 -> Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ~flow ()); incr enq
          | 4 -> Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ~flow ()); incr enq
          | 5 -> (match Taq_queues.dequeue q with Some _ -> incr deq | None -> ())
          | _ -> (
              match Taq_queues.select_victim q with
              | Some cls -> (
                  match Taq_queues.drop_from q cls with
                  | Some _ -> incr dropped
                  | None -> ())
              | None -> ()))
        ops;
      !enq = !deq + !dropped + Taq_queues.total_packets q)

let prop_taq_queue_class_lengths_sum =
  QCheck.Test.make ~name:"class lengths sum to total" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 80) (int_range 0 5))
    (fun ops ->
      let clock = [| 0.0 |] in
      let config = Taq_core.Taq_config.default ~capacity_pkts:100 ~capacity_bps:1e6 in
      let q = Taq_queues.create ~config ~clock in
      List.iter
        (fun op ->
          match op with
          | 0 -> Taq_queues.enqueue q Taq_queues.Recovery ~priority:1 (mk_data ())
          | 1 -> Taq_queues.enqueue q Taq_queues.New_flow ~priority:0 (mk_data ())
          | 2 -> Taq_queues.enqueue q Taq_queues.Below_fair_share ~priority:0 (mk_data ())
          | 3 -> Taq_queues.enqueue q Taq_queues.Above_fair_share ~priority:0 (mk_data ())
          | 4 -> Taq_queues.enqueue q Taq_queues.Over_penalized ~priority:0 (mk_data ())
          | _ -> ignore (Taq_queues.dequeue q))
        ops;
      let sum =
        List.fold_left
          (fun acc cls -> acc + Taq_queues.class_length q cls)
          0
          [ Taq_queues.Recovery; Taq_queues.New_flow; Taq_queues.Over_penalized;
            Taq_queues.Below_fair_share; Taq_queues.Above_fair_share ]
      in
      sum = Taq_queues.total_packets q)

let () =
  Alcotest.run "taq_core"
    [
      ( "flow_state",
        [
          Alcotest.test_case "ss growth" `Quick test_fs_slow_start_growth;
          Alcotest.test_case "ss to normal" `Quick test_fs_slow_start_to_normal;
          Alcotest.test_case "drop to recovery" `Quick test_fs_drop_triggers_recovery;
          Alcotest.test_case "silence after drop" `Quick
            test_fs_silence_after_drop_is_timeout;
          Alcotest.test_case "idle dummy state" `Quick
            test_fs_silence_without_drop_is_idle;
          Alcotest.test_case "extended silence" `Quick test_fs_repeated_silence_extends;
          Alcotest.test_case "timeout recovery" `Quick
            test_fs_retx_after_silence_is_timeout_recovery;
          Alcotest.test_case "recovery to slow start" `Quick
            test_fs_timeout_recovery_to_slow_start;
          Alcotest.test_case "loss recovery to normal" `Quick
            test_fs_loss_recovery_completes_to_normal;
          Alcotest.test_case "repetitive timeout" `Quick
            test_fs_lost_recovery_retx_means_repetitive;
          Alcotest.test_case "total function" `Quick test_fs_total_over_all_states;
        ] );
      ( "epoch_estimator",
        [
          Alcotest.test_case "default" `Quick test_epoch_default_before_evidence;
          Alcotest.test_case "oracle" `Quick test_epoch_oracle;
          Alcotest.test_case "syn gap" `Quick test_epoch_syn_data_gap;
          Alcotest.test_case "burst detection" `Quick test_epoch_burst_detection;
          Alcotest.test_case "clamped" `Quick test_epoch_clamped;
        ] );
      ( "flow_tracker",
        [
          Alcotest.test_case "new vs retx" `Quick test_tracker_classifies_new_vs_retx;
          Alcotest.test_case "sender flag ignored" `Quick
            test_tracker_ignores_sender_retx_flag;
          Alcotest.test_case "silence epochs" `Quick test_tracker_silence_epochs_accumulate;
          Alcotest.test_case "overpenalized" `Quick test_tracker_overpenalized;
          Alcotest.test_case "new flow ages" `Quick test_tracker_new_flow_ages_out;
          Alcotest.test_case "outstanding drops" `Quick
            test_tracker_retx_consumes_outstanding_drop;
          Alcotest.test_case "idle expiry" `Quick test_tracker_expires_idle_flows;
          Alcotest.test_case "rates and shares" `Quick test_tracker_rate_and_fair_share;
          Alcotest.test_case "epoch shrink" `Quick
            test_tracker_epoch_shrink_pulls_deadlines;
          Alcotest.test_case "clock monotone" `Quick test_tracker_clock_monotone;
          Alcotest.test_case "silent roll allocation" `Quick
            test_tracker_silent_roll_allocation;
          Alcotest.test_case "idle flows cost the tick nothing" `Quick
            test_tracker_idle_flows_cost_the_tick_nothing;
          Alcotest.test_case "long gap" `Quick
            test_tracker_long_gap_matches_reference;
          Alcotest.test_case "sharp first estimate" `Quick
            test_tracker_sharp_first_estimate_matches_reference;
          Alcotest.test_case "churn memory flat" `Quick test_tracker_churn_memory_flat;
        ] );
      ( "flow_tracker_vs_reference",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_taq_tracker"))
          [
            prop_tracker_matches_reference;
            prop_tracker_matches_reference_sparse;
            prop_tracker_matches_reference_crowded;
            prop_tracker_matches_reference_ticks;
            prop_tracker_matches_reference_end;
          ] );
      ( "fair_share",
        [
          Alcotest.test_case "basic" `Quick test_fair_share_basic;
        ] );
      ( "taq_queues",
        [
          Alcotest.test_case "recovery priority" `Quick test_queues_recovery_priority_order;
          Alcotest.test_case "recovery first" `Quick test_queues_recovery_beats_everything;
          Alcotest.test_case "above last" `Quick test_queues_above_served_last;
          Alcotest.test_case "token bucket" `Quick test_queues_token_bucket_limits_recovery;
          Alcotest.test_case "victim selection" `Quick test_queues_victim_selection;
          Alcotest.test_case "accounting" `Quick test_queues_accounting;
          Alcotest.test_case "push-out tie-break" `Quick test_queues_pushout_tie_break;
          Alcotest.test_case "recovery cost flat" `Quick test_queues_recovery_cost_flat;
        ] );
      ( "taq_queues_vs_reference",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_taq_queues"))
          [
            prop_queues_match_reference;
            prop_queues_match_reference_fifo;
            prop_pushout_tie_break_matches_reference;
          ] );
      ( "admission",
        [
          Alcotest.test_case "low loss admits" `Quick test_admission_low_loss_admits;
          Alcotest.test_case "high loss rejects" `Quick test_admission_high_loss_rejects_new;
          Alcotest.test_case "admitted stays" `Quick test_admission_admitted_pool_stays;
          Alcotest.test_case "t_wait guarantee" `Quick test_admission_t_wait_guarantee;
          Alcotest.test_case "expiry" `Quick test_admission_pool_expiry;
          Alcotest.test_case "waiting expiry" `Quick test_admission_waiting_expiry;
          Alcotest.test_case "shed waiting" `Quick test_admission_shed_waiting;
        ] );
      ( "admission_vs_reference",
        List.map
          (QCheck_alcotest.to_alcotest
             ~rand:(Qcheck_seed.rand ~file:"test_taq_admission"))
          [ prop_admission_matches_reference ] );
      ( "tracker_cap",
        [
          Alcotest.test_case "never exceeded" `Quick test_tracker_cap_never_exceeded;
          Alcotest.test_case "evicts lru" `Quick test_tracker_cap_evicts_lru;
        ] );
      ( "overload_guard",
        [
          Alcotest.test_case "sustained pressure" `Quick
            test_guard_trips_only_on_sustained_pressure;
          Alcotest.test_case "full arc" `Quick test_guard_full_arc_and_dwells;
          Alcotest.test_case "recovering retrips" `Quick test_guard_recovering_retrips;
          Alcotest.test_case "waiting backlog" `Quick
            test_guard_waiting_backlog_is_pressure;
          Alcotest.test_case "config validation" `Quick test_config_guard_validation;
        ] );
      ( "taq_disc",
        [
          Alcotest.test_case "accepts and serves" `Quick test_disc_accepts_and_serves;
          Alcotest.test_case "pushout" `Quick test_disc_pushout_prefers_low_priority;
          Alcotest.test_case "syn rejected" `Quick
            test_disc_syn_rejected_under_admission_pressure;
          Alcotest.test_case "syn admitted" `Quick test_disc_syn_admitted_when_clear;
          Alcotest.test_case "admission loss signal" `Quick
            test_disc_admission_loss_signal;
          Alcotest.test_case "newflow cap" `Quick test_disc_newflow_cap_follows_capacity;
          Alcotest.test_case "conservation" `Quick test_disc_conservation;
          Alcotest.test_case "degraded bypass" `Quick test_disc_degraded_bypass;
          Alcotest.test_case "steady-state allocation" `Quick
            test_disc_steady_state_allocation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "taq beats droptail" `Slow test_taq_beats_droptail_fairness;
          Alcotest.test_case "utilization preserved" `Slow test_taq_preserves_utilization;
          Alcotest.test_case "idle persistent flow" `Quick
            test_taq_idle_persistent_flow_classified_idle;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_taq"))
          [ prop_taq_queues_conserve_packets; prop_taq_queue_class_lengths_sum ] );
    ]

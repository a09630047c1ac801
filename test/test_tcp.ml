(* Tests for taq_tcp: RTO estimation, the scoreboard, the receiver's
   ack generation, and end-to-end sender behaviour over a simulated
   dumbbell (completion, loss recovery, timeouts, backoff, sharing). *)

open Taq_tcp
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Dumbbell = Taq_net.Dumbbell

(* --- Rto ---------------------------------------------------------------- *)

let test_rto_initial () =
  let r = Rto.create ~min_rto:0.2 in
  Alcotest.(check (float 1e-9)) "1s before samples" 1.0 (Rto.timeout r)

let test_rto_first_sample () =
  let r = Rto.create ~min_rto:0.2 in
  Rto.observe r 0.5;
  (* srtt = 0.5, rttvar = 0.25, rto = 0.5 + 4*0.25 = 1.5 *)
  Alcotest.(check (float 1e-9)) "srtt" 0.5 (Rto.srtt r);
  Alcotest.(check (float 1e-9)) "rto" 1.5 (Rto.timeout r)

let test_rto_smoothing () =
  let r = Rto.create ~min_rto:0.2 in
  for _ = 1 to 100 do
    Rto.observe r 0.1
  done;
  (* With constant samples rttvar converges to 0; min_rto clamps. *)
  Alcotest.(check (float 1e-3)) "converged srtt" 0.1 (Rto.srtt r);
  Alcotest.(check (float 1e-9)) "clamped at min" 0.2 (Rto.timeout r)

let test_rto_max_clamp () =
  let r = Rto.create ~min_rto:0.2 in
  Rto.observe r 100.0;
  Alcotest.(check (float 1e-9)) "clamped at max" 60.0 (Rto.timeout r)

(* --- Scoreboard ---------------------------------------------------------- *)

let test_sb_pipe_tracking () =
  let sb = Scoreboard.create () in
  Scoreboard.on_transmit sb ~seq:0 ~at:0.0 ~retx:false;
  Scoreboard.on_transmit sb ~seq:1 ~at:0.0 ~retx:false;
  Alcotest.(check int) "pipe 2" 2 (Scoreboard.pipe sb);
  Scoreboard.ack_range sb ~from_:0 ~until:1;
  Alcotest.(check int) "pipe 1 after ack" 1 (Scoreboard.pipe sb)

let test_sb_mark_lost_and_retransmit () =
  let sb = Scoreboard.create () in
  Scoreboard.on_transmit sb ~seq:0 ~at:0.0 ~retx:false;
  Scoreboard.mark_lost sb 0;
  Alcotest.(check int) "pipe empty" 0 (Scoreboard.pipe sb);
  Alcotest.(check int) "lost candidate" 0 (Scoreboard.next_lost_seq sb);
  Scoreboard.on_transmit sb ~seq:0 ~at:1.0 ~retx:true;
  Alcotest.(check int) "back in pipe" 1 (Scoreboard.pipe sb);
  Alcotest.(check int) "no more lost" (-1) (Scoreboard.next_lost_seq sb);
  (* Karn: the segment is marked ever-retransmitted. *)
  Alcotest.(check bool) "ever_retx" true (Scoreboard.sent_ever_retx sb 0)

let test_sb_sacked () =
  let sb = Scoreboard.create () in
  for seq = 0 to 4 do
    Scoreboard.on_transmit sb ~seq ~at:0.0 ~retx:false
  done;
  Scoreboard.mark_sacked sb 2;
  Scoreboard.mark_sacked sb 3;
  Scoreboard.mark_sacked sb 4;
  Alcotest.(check int) "pipe shrinks" 2 (Scoreboard.pipe sb);
  Alcotest.(check int) "sacked above 0" 3 (Scoreboard.sacked_above sb 0);
  Alcotest.(check int) "sacked above 3" 1 (Scoreboard.sacked_above sb 3)

let test_sb_mark_all_lost_spares_sacked () =
  let sb = Scoreboard.create () in
  for seq = 0 to 3 do
    Scoreboard.on_transmit sb ~seq ~at:0.0 ~retx:false
  done;
  Scoreboard.mark_sacked sb 2;
  Scoreboard.mark_all_lost sb;
  Alcotest.(check int) "lost count" 3 (Scoreboard.lost_count sb);
  Alcotest.(check int) "sacked preserved" 1 (Scoreboard.sacked_count sb);
  Alcotest.(check int) "lowest lost" 0 (Scoreboard.next_lost_seq sb)

let test_sb_next_lost_is_lowest () =
  let sb = Scoreboard.create () in
  for seq = 0 to 5 do
    Scoreboard.on_transmit sb ~seq ~at:0.0 ~retx:false
  done;
  Scoreboard.mark_lost sb 4;
  Scoreboard.mark_lost sb 1;
  Scoreboard.mark_lost sb 3;
  Alcotest.(check int) "lowest" 1 (Scoreboard.next_lost_seq sb)

(* --- Receiver ------------------------------------------------------------ *)

let alloc = Packet.alloc ()

let mk_data ~flow ~seq =
  Packet.make ~alloc ~flow ~kind:Packet.Data ~seq ~size:500 ~sent_at:0.0 ()

let make_receiver ?(variant = Tcp_config.Sack) () =
  (* SACK-speaking by default: several tests inspect the ack's SACK
     blocks, which non-SACK receivers (correctly) omit. *)
  let acks = ref [] in
  let r =
    Tcp_receiver.create ~flow:1 ~config:{ (Tcp_config.make ()) with variant }
      ~now:(fun () -> 0.0)
      ~send:(fun p -> acks := p :: !acks)
      ()
  in
  (r, acks)

let test_receiver_in_order () =
  let r, acks = make_receiver () in
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:0);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:1);
  Alcotest.(check int) "cum" 2 (Tcp_receiver.cum_ack r);
  (match !acks with
  | last :: _ -> Alcotest.(check int) "last ack" 2 last.Packet.seq
  | [] -> Alcotest.fail "no acks");
  Alcotest.(check int) "one ack per packet" 2 (List.length !acks)

let test_receiver_out_of_order_dupack () =
  let r, acks = make_receiver () in
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:0);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:2);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:3);
  (* The last two acks are duplicates with cum = 1 and SACK blocks. *)
  (match !acks with
  | a3 :: a2 :: _ ->
      Alcotest.(check int) "dup cum" 1 a3.Packet.seq;
      Alcotest.(check int) "dup cum" 1 a2.Packet.seq;
      Alcotest.(check bool) "sack present" true (a3.Packet.sacks <> [])
  | _ -> Alcotest.fail "expected 3 acks");
  (* Hole fills: cum jumps. *)
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:1);
  Alcotest.(check int) "cum jumps" 4 (Tcp_receiver.cum_ack r)

let test_receiver_sack_blocks_cover_ooo () =
  let r, acks = make_receiver () in
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:0);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:2);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:3);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:5);
  match !acks with
  | last :: _ ->
      let covers seq =
        List.exists (fun (lo, hi) -> seq >= lo && seq < hi) last.Packet.sacks
      in
      Alcotest.(check bool) "covers 2" true (covers 2);
      Alcotest.(check bool) "covers 3" true (covers 3);
      Alcotest.(check bool) "covers 5" true (covers 5);
      Alcotest.(check bool) "not 1" false (covers 1)
  | [] -> Alcotest.fail "no acks"

let test_receiver_duplicate_counted () =
  let r, _acks = make_receiver () in
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:0);
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:0);
  Alcotest.(check int) "unique" 1 (Tcp_receiver.unique_segments r);
  Alcotest.(check int) "dups" 1 (Tcp_receiver.duplicate_segments r)

let test_receiver_syn_ack () =
  let r, acks = make_receiver () in
  Tcp_receiver.on_packet r
    (Packet.make ~alloc ~flow:1 ~kind:Packet.Syn ~seq:0 ~size:40 ~sent_at:0.0 ());
  match !acks with
  | [ p ] -> Alcotest.(check bool) "syn-ack" true (p.Packet.kind = Packet.Syn_ack)
  | _ -> Alcotest.fail "expected one syn-ack"

let test_receiver_acks_every_segment_at_once () =
  (* No delayed ACKs: each in-order segment is acked on arrival, with
     the cumulative ack it completes; an out-of-order one too. *)
  let r, acks = make_receiver ~variant:Tcp_config.Newreno () in
  for seq = 0 to 9 do
    Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq);
    Alcotest.(check int) "one ack per segment" (seq + 1) (List.length !acks);
    Alcotest.(check int) "cum ack" (seq + 1) (List.hd !acks).Packet.seq
  done;
  Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq:12);
  Alcotest.(check int) "out-of-order acked at once" 11 (List.length !acks);
  Alcotest.(check int) "dup cum" 10 (List.hd !acks).Packet.seq

(* --- End-to-end over a dumbbell ------------------------------------------ *)

(* One flow over a clean fast link: it must complete, quickly, with no
   retransmissions. *)
let scenario ?(capacity_bps = 1e6) ?(buffer_pkts = 100) ?(rtt = 0.1)
    ?(config = Tcp_config.make ()) ?(flows = 1) ?(segments = 50)
    ?(external_loss_p = 0.0) ?(seed = 1) () =
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:buffer_pkts in
  let net = Dumbbell.create ~sim ~capacity_bps ~disc () in
  let completions = ref [] in
  let sessions =
    List.init flows (fun _ ->
        Tcp_session.create ~net ~config ~rtt_prop:rtt ~total_segments:segments
          ~on_complete:(fun t -> completions := t :: !completions)
          ())
  in
  (* Optional Bernoulli loss on the forward path: the stationary
     [loss:p=P] fault plan, tapping delivery between link and
     receivers for every flow at once. *)
  if external_loss_p > 0.0 then begin
    let prng = Taq_util.Prng.create ~seed in
    ignore
      (Taq_fault.Injector.install ~net ~prng
         [ Taq_fault.Plan.Loss { p = external_loss_p } ])
  end;
  List.iter Tcp_session.start sessions;
  (sim, net, sessions, completions)

let test_e2e_single_flow_completes () =
  let sim, _, sessions, completions = scenario () in
  Sim.run ~until:60.0 sim;
  Alcotest.(check int) "completed" 1 (List.length !completions);
  let s = List.hd sessions in
  let st = Tcp_sender.stats (Tcp_session.sender s) in
  Alcotest.(check int) "no retransmissions on clean path" 0 st.Tcp_sender.retx_sent;
  Alcotest.(check int) "no timeouts" 0 st.Tcp_sender.timeouts

let test_e2e_receiver_gets_everything () =
  let sim, _, sessions, _ = scenario ~segments:120 () in
  Sim.run ~until:60.0 sim;
  let r = Tcp_session.receiver (List.hd sessions) in
  Alcotest.(check int) "all unique segments" 120 (Tcp_receiver.unique_segments r);
  Alcotest.(check int) "cum complete" 120 (Tcp_receiver.cum_ack r)

let test_e2e_slow_start_growth () =
  (* On a clean path the flow finishes in roughly log2(n) RTTs: 50
     segments from cwnd 2 needs ~5 round trips, so well under 10 RTTs
     including handshake. *)
  let sim, _, _, completions = scenario ~capacity_bps:1e8 ~segments:50 () in
  Sim.run ~until:60.0 sim;
  match !completions with
  | [ t ] -> Alcotest.(check bool) (Printf.sprintf "fast finish (%.3f s)" t) true (t < 1.0)
  | _ -> Alcotest.fail "did not complete"

let test_e2e_throughput_bounded_by_link () =
  (* A long flow cannot move bytes faster than the bottleneck. *)
  let segments = 200 in
  let sim, net, _, completions =
    scenario ~capacity_bps:100_000.0 ~segments ~rtt:0.05 ()
  in
  Sim.run ~until:300.0 sim;
  Alcotest.(check int) "completed" 1 (List.length !completions);
  let t = List.hd !completions in
  let bytes = segments * Tcp_config.packet_bytes in
  let min_time = float_of_int (bytes * 8) /. 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f s >= serialization floor %.2f s" t min_time)
    true (t >= min_time *. 0.99);
  ignore net

(* The paper's packet sizes, tapped on both directions of the path:
   500 B data on the wire, 40 B SYNs and ACKs. *)
let test_e2e_wire_sizes () =
  let sim, net, _, completions = scenario ~segments:20 () in
  let seen = ref [] in
  let tap (p : Packet.t) deliver =
    seen := (p.kind, p.size) :: !seen;
    deliver p
  in
  Dumbbell.set_fwd_interceptor net (Some tap);
  Dumbbell.set_rev_interceptor net (Some tap);
  Sim.run ~until:60.0 sim;
  Alcotest.(check int) "completed" 1 (List.length !completions);
  let sizes kind =
    List.sort_uniq compare
      (List.filter_map (fun (k, size) -> if k = kind then Some size else None)
         !seen)
  in
  Alcotest.(check (list int)) "data" [ 500 ] (sizes Packet.Data);
  Alcotest.(check (list int)) "syn" [ 40 ] (sizes Packet.Syn);
  Alcotest.(check (list int)) "ack" [ 40 ] (sizes Packet.Ack)

let test_e2e_completes_under_loss () =
  (* 10% forward loss: recovery machinery must still finish the flow. *)
  let sim, _, sessions, completions =
    scenario ~segments:80 ~external_loss_p:0.1 ~seed:5 ()
  in
  Sim.run ~until:600.0 sim;
  Alcotest.(check int) "completed despite loss" 1 (List.length !completions);
  let st = Tcp_sender.stats (Tcp_session.sender (List.hd sessions)) in
  Alcotest.(check bool) "some retransmissions" true (st.Tcp_sender.retx_sent > 0)

let test_e2e_completes_under_heavy_loss_all_variants () =
  List.iter
    (fun variant ->
      let config = { (Tcp_config.make ()) with variant } in
      let sim, _, _, completions =
        scenario ~segments:60 ~external_loss_p:0.25 ~seed:9 ~config ()
      in
      Sim.run ~until:3600.0 sim;
      Alcotest.(check int)
        (Printf.sprintf "variant completes")
        1
        (List.length !completions))
    [ Tcp_config.Newreno; Tcp_config.Sack ]

let test_e2e_timeouts_and_backoff_under_severe_loss () =
  let sim, _, sessions, _ =
    scenario ~segments:40 ~external_loss_p:0.45 ~seed:3 ()
  in
  Sim.run ~until:2000.0 sim;
  let st = Tcp_sender.stats (Tcp_session.sender (List.hd sessions)) in
  Alcotest.(check bool) "timeouts occurred" true (st.Tcp_sender.timeouts > 0);
  Alcotest.(check bool) "exponential backoff engaged" true
    (st.Tcp_sender.max_backoff_seen >= 2)

let test_e2e_two_flows_share () =
  let sim, _, sessions, completions =
    scenario ~flows:2 ~segments:100 ~capacity_bps:200_000.0 ()
  in
  Sim.run ~until:120.0 sim;
  Alcotest.(check int) "both complete" 2 (List.length !completions);
  List.iter
    (fun s ->
      Alcotest.(check int) "all delivered" 100
        (Tcp_receiver.unique_segments (Tcp_session.receiver s)))
    sessions

let test_e2e_many_flows_congest () =
  (* 30 flows into a 200 Kbps pipe: drops and timeouts are inevitable,
     yet conservation must hold and at least some flows complete. *)
  let sim, net, sessions, completions =
    scenario ~flows:30 ~segments:30 ~capacity_bps:200_000.0 ~buffer_pkts:20
      ~rtt:0.2 ()
  in
  Sim.run ~until:600.0 sim;
  let link_stats = Taq_net.Link.stats (Dumbbell.link net) in
  Alcotest.(check bool) "drops happened" true (link_stats.Taq_net.Link.dropped > 0);
  Alcotest.(check bool) "most flows complete" true (List.length !completions > 20);
  let total_timeouts =
    List.fold_left
      (fun acc s -> acc + (Tcp_sender.stats (Tcp_session.sender s)).Tcp_sender.timeouts)
      0 sessions
  in
  Alcotest.(check bool) "timeouts under contention" true (total_timeouts > 0)

let test_e2e_syn_handshake_measured () =
  (* With use_syn the first data packet leaves one RTT after start. *)
  let config = Tcp_config.make ~use_syn:true () in
  let sim, _, sessions, _ = scenario ~config ~capacity_bps:1e8 ~rtt:0.2 () in
  let first_data = ref nan in
  Tcp_sender.on_transmit
    (Tcp_session.sender (List.hd sessions))
    (fun p ->
      if p.Packet.kind = Packet.Data && Float.is_nan !first_data then
        first_data := Sim.now sim);
  Sim.run ~until:10.0 sim;
  Alcotest.(check bool)
    (Printf.sprintf "first data after ~1 RTT (%.3f)" !first_data)
    true
    (!first_data >= 0.19 && !first_data < 0.4)

(* An unanswered SYN is retried after 3 s, the wait doubling each time
   up to the 60 s maximum RTO; without doubling it is retried every
   3 s. The listener joins after the first SYN, sent at start. *)
let test_e2e_syn_retry_schedule () =
  let retry_times ~syn_retry_doubling ~until =
    let config = Tcp_config.make ~syn_retry_doubling () in
    let sim, net, sessions, completions = scenario ~config () in
    (* Every SYN is lost on the forward path. *)
    Dumbbell.set_fwd_interceptor net
      (Some (fun p deliver -> if p.Packet.kind <> Packet.Syn then deliver p));
    let times = ref [] in
    Tcp_sender.on_transmit
      (Tcp_session.sender (List.hd sessions))
      (fun p -> if p.Packet.kind = Packet.Syn then times := Sim.now sim :: !times);
    Sim.run ~until sim;
    Alcotest.(check int) "never completes" 0 (List.length !completions);
    List.rev !times
  in
  Alcotest.(check (list (float 1e-9))) "doubling, capped at 60 s"
    [ 3.0; 9.0; 21.0; 45.0; 93.0; 153.0; 213.0 ]
    (retry_times ~syn_retry_doubling:true ~until:250.0);
  Alcotest.(check (list (float 1e-9))) "every 3 s"
    (List.init 8 (fun i -> 3.0 *. float_of_int (i + 1)))
    (retry_times ~syn_retry_doubling:false ~until:25.0)

let test_e2e_no_syn_starts_immediately () =
  (* Without a handshake the flow opens instantly: no SYNs on the wire,
     and (on a fast clean link) completion in well under the time the
     handshake RTT would add. *)
  let config = Tcp_config.make ~use_syn:false () in
  let sim, _, sessions, completions = scenario ~config ~capacity_bps:1e8 () in
  Sim.run ~until:10.0 sim;
  let st = Tcp_sender.stats (Tcp_session.sender (List.hd sessions)) in
  Alcotest.(check int) "no syns" 0 st.Tcp_sender.syn_sent;
  match !completions with
  | [ t ] -> Alcotest.(check bool) "fast completion" true (t < 1.0)
  | _ -> Alcotest.fail "did not complete"

let test_e2e_zero_length_flow () =
  let sim, _, _, completions = scenario ~segments:0 () in
  Sim.run ~until:10.0 sim;
  Alcotest.(check int) "empty flow completes" 1 (List.length !completions)

let test_e2e_deterministic () =
  let run () =
    let sim, _, _, completions =
      scenario ~flows:5 ~segments:40 ~capacity_bps:300_000.0 ()
    in
    Sim.run ~until:200.0 sim;
    List.sort compare !completions
  in
  let a = run () and b = run () in
  Alcotest.(check (list (float 1e-12))) "identical runs" a b



(* --- CUBIC ----------------------------------------------------------------- *)

let test_cubic_completes () =
  let config = { Tcp_config.cubic with Tcp_config.use_syn = false } in
  let sim, _, _, completions = scenario ~config ~segments:100 () in
  Sim.run ~until:60.0 sim;
  Alcotest.(check int) "cubic flow completes" 1 (List.length !completions)

let test_cubic_completes_under_loss () =
  let config = { Tcp_config.cubic with Tcp_config.use_syn = false } in
  let sim, _, _, completions =
    scenario ~config ~segments:80 ~external_loss_p:0.15 ~seed:7 ()
  in
  Sim.run ~until:600.0 sim;
  Alcotest.(check int) "completes under loss" 1 (List.length !completions)

let test_cubic_initial_window_ten () =
  (* The paper: "most TCP flows use TCP CUBIC and begin with a
     congestion window of 10". The first flight must carry 10
     segments. *)
  let config = { Tcp_config.cubic with Tcp_config.use_syn = false } in
  let sim, _, sessions, _ = scenario ~config ~capacity_bps:1e8 ~segments:50 () in
  let first_flight = ref 0 in
  Tcp_sender.on_transmit
    (Tcp_session.sender (List.hd sessions))
    (fun p ->
      if p.Packet.kind = Packet.Data && Sim.now sim < 0.01 then
        incr first_flight);
  (* The listener attaches after start already sent the burst; count
     via a fresh scenario instead. *)
  ignore !first_flight;
  Sim.run ~until:5.0 sim;
  (* Indirect check: with init cwnd 10 and a 0.1 s RTT on a clean fast
     link, 50 segments need ~3 round trips (10+20+20), well under 5
     with handshake off. *)
  let st = Tcp_sender.stats (Tcp_session.sender (List.hd sessions)) in
  Alcotest.(check int) "no retx" 0 st.Tcp_sender.retx_sent

let test_cubic_regrows_faster_than_aimd_after_loss () =
  (* After a loss event at a large window, CUBIC's window recovers
     toward w_max faster than AIMD's additive 1/cwnd per ack. Compare
     cwnd a while after a synthetic reduction by driving two senders
     over a clean link after an early loss. *)
  let run growth =
    let config =
      { (Tcp_config.make ~use_syn:false ()) with growth }
    in
    let sim, _, sessions, _ =
      scenario ~config ~capacity_bps:5e6 ~rtt:0.05 ~segments:max_int
        ~external_loss_p:0.002 ~seed:3 ()
    in
    Sim.run ~until:30.0 sim;
    Tcp_sender.cwnd (Tcp_session.sender (List.hd sessions))
  in
  let cubic = run Tcp_config.Cubic and aimd = run Tcp_config.Aimd in
  Alcotest.(check bool)
    (Printf.sprintf "cubic window %.1f >= aimd %.1f" cubic aimd)
    true (cubic >= aimd *. 0.9)

let prop_tcp_completes_under_random_loss =
  (* Robustness sweep: any Bernoulli loss rate up to 0.35 and any seed,
     every variant must still complete a finite transfer (given enough
     simulated time). This is the end-to-end liveness property of the
     whole recovery machinery. *)
  QCheck.Test.make ~name:"tcp completes under random loss" ~count:25
    QCheck.(pair (int_range 1 10_000) (float_range 0.0 0.35))
    (fun (seed, loss) ->
      List.for_all
        (fun variant ->
          let config = { (Tcp_config.make ()) with variant } in
          let sim, _, _, completions =
            scenario ~segments:40 ~external_loss_p:loss ~seed ~config ()
          in
          Sim.run ~until:3600.0 sim;
          List.length !completions = 1)
        [ Tcp_config.Newreno; Tcp_config.Sack ])

let prop_receiver_never_acks_beyond_delivery =
  (* The cumulative ack can never exceed the number of distinct
     segments delivered. *)
  QCheck.Test.make ~name:"cum ack bounded by deliveries" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 19))
    (fun seqs ->
      let r, _ = make_receiver () in
      List.iter (fun seq -> Tcp_receiver.on_packet r (mk_data ~flow:1 ~seq)) seqs;
      Tcp_receiver.cum_ack r <= Tcp_receiver.unique_segments r
      && Tcp_receiver.unique_segments r + Tcp_receiver.duplicate_segments r
         = List.length seqs)

(* The ACK clock re-arms the RTO on every ack. Done as cancel +
   reschedule, each re-arm left a cancelled calendar entry behind
   (4 969 of 110 492 scheduled events on this flow); the re-armable
   timer reuses its pending entry, so almost nothing is skipped (35). *)
let test_e2e_ack_clock_leaves_no_cancelled_entries () =
  let obs = Taq_obs.Obs.create () in
  let sim = Sim.create ~obs () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:50 in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let done_at = ref nan in
  let s =
    Tcp_session.create ~net ~config:(Tcp_config.make ()) ~rtt_prop:0.2
      ~total_segments:20_000 ~on_complete:(fun t -> done_at := t) ()
  in
  Tcp_session.start s;
  Sim.run sim;
  Alcotest.(check bool) "flow completed" true (not (Float.is_nan !done_at));
  let snap = Taq_obs.Obs.snapshot obs in
  let scheduled = Taq_obs.Obs.counter_value snap "sim.events_scheduled"
  and skipped = Taq_obs.Obs.counter_value snap "sim.events_skipped" in
  if skipped * 100 >= scheduled then
    Alcotest.failf "%d of %d scheduled events were skipped (>= 1%%)" skipped
      scheduled

(* Minor words per packet offered to the bottleneck, for four long
   NewReno flows through droptail with no listeners, counted after a
   warm-up. It pins [Sim.now] as inlinable. Inlined, it boxes the clock
   only where a caller passes the reading to a call the release
   profile does not inline; kept out of line, every call returns a
   fresh box. On OCaml 5.1.1 without flambda this run allocates 8.42
   words per packet with [Sim.now] inlinable and 8.74 with it
   [@inline never], so the release bound lies between. Under
   [--profile dev], [-opaque] stops all inlining across modules: both
   choices read 11.71, and the bound there only catches a new
   allocation. *)
let test_e2e_minor_words_per_offered_packet () =
  let sim = Sim.create () in
  let disc = Taq_queueing.Droptail.create ~capacity_pkts:50 in
  let net = Dumbbell.create ~sim ~capacity_bps:2e6 ~disc () in
  List.init 4 (fun i ->
      Tcp_session.create ~net ~config:(Tcp_config.make ())
        ~rtt_prop:(0.1 +. (0.02 *. float_of_int i))
        ~total_segments:max_int ())
  |> List.iter Tcp_session.start;
  let offered () = (Taq_net.Link.stats (Dumbbell.link net)).offered in
  Sim.run ~until:10.0 sim;
  let words0 = Gc.minor_words () and offered0 = offered () in
  Sim.run ~until:100.0 sim;
  let per_pkt =
    (Gc.minor_words () -. words0) /. float_of_int (offered () - offered0)
  in
  let bound = if Build_profile.name = "release" then 8.6 else 12.0 in
  if per_pkt >= bound then
    Alcotest.failf
      "%.2f minor words per offered packet (bound %.1f, %s profile)" per_pkt
      bound Build_profile.name

let () =
  Alcotest.run "taq_tcp"
    [
      ( "rto",
        [
          Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "max clamp" `Quick test_rto_max_clamp;
        ] );
      ( "scoreboard",
        [
          Alcotest.test_case "pipe" `Quick test_sb_pipe_tracking;
          Alcotest.test_case "lost/retx" `Quick test_sb_mark_lost_and_retransmit;
          Alcotest.test_case "sacked" `Quick test_sb_sacked;
          Alcotest.test_case "all lost spares sacked" `Quick
            test_sb_mark_all_lost_spares_sacked;
          Alcotest.test_case "next lost lowest" `Quick test_sb_next_lost_is_lowest;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "in order" `Quick test_receiver_in_order;
          Alcotest.test_case "out of order" `Quick test_receiver_out_of_order_dupack;
          Alcotest.test_case "sack blocks" `Quick test_receiver_sack_blocks_cover_ooo;
          Alcotest.test_case "duplicates" `Quick test_receiver_duplicate_counted;
          Alcotest.test_case "syn ack" `Quick test_receiver_syn_ack;
          Alcotest.test_case "acks every segment at once" `Quick
            test_receiver_acks_every_segment_at_once;
        ] );
      ( "cubic",
        [
          Alcotest.test_case "completes" `Quick test_cubic_completes;
          Alcotest.test_case "completes under loss" `Quick
            test_cubic_completes_under_loss;
          Alcotest.test_case "init window 10" `Quick test_cubic_initial_window_ten;
          Alcotest.test_case "regrows after loss" `Slow
            test_cubic_regrows_faster_than_aimd_after_loss;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_tcp"))
          [
            prop_tcp_completes_under_random_loss;
            prop_receiver_never_acks_beyond_delivery;
          ] );
      ( "end_to_end",
        [
          Alcotest.test_case "single flow" `Quick test_e2e_single_flow_completes;
          Alcotest.test_case "receiver complete" `Quick test_e2e_receiver_gets_everything;
          Alcotest.test_case "slow start" `Quick test_e2e_slow_start_growth;
          Alcotest.test_case "throughput bound" `Quick test_e2e_throughput_bounded_by_link;
          Alcotest.test_case "wire sizes" `Quick test_e2e_wire_sizes;
          Alcotest.test_case "loss recovery" `Quick test_e2e_completes_under_loss;
          Alcotest.test_case "heavy loss, all variants" `Slow
            test_e2e_completes_under_heavy_loss_all_variants;
          Alcotest.test_case "timeouts + backoff" `Quick
            test_e2e_timeouts_and_backoff_under_severe_loss;
          Alcotest.test_case "two flows" `Quick test_e2e_two_flows_share;
          Alcotest.test_case "many flows congest" `Slow test_e2e_many_flows_congest;
          Alcotest.test_case "syn handshake" `Quick test_e2e_syn_handshake_measured;
          Alcotest.test_case "syn retry schedule" `Quick test_e2e_syn_retry_schedule;
          Alcotest.test_case "no syn" `Quick test_e2e_no_syn_starts_immediately;
          Alcotest.test_case "zero length" `Quick test_e2e_zero_length_flow;
          Alcotest.test_case "deterministic" `Quick test_e2e_deterministic;
          Alcotest.test_case "ack clock leaves no cancelled entries" `Quick
            test_e2e_ack_clock_leaves_no_cancelled_entries;
          Alcotest.test_case "minor words per offered packet" `Quick
            test_e2e_minor_words_per_offered_packet;
        ] );
    ]

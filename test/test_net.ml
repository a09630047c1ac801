(* Tests for taq_net: packets, the FIFO discipline helper, link
   transmission timing and accounting, dumbbell delivery. *)

open Taq_net
module Sim = Taq_engine.Sim

(* One shared allocator for ad-hoc test packets: uids only need to be
   unique within a test's queue/link, which this guarantees. *)
let alloc = Packet.alloc ()

let mk_pkt ?(flow = 1) ?(seq = 0) ?(size = 500) ?(kind = Packet.Data) () =
  Packet.make ~alloc ~flow ~kind ~seq ~size ~sent_at:0.0 ()

(* --- Packet ----------------------------------------------------------- *)

let test_packet_uids_unique () =
  let a = mk_pkt () and b = mk_pkt () in
  Alcotest.(check bool) "uids differ" true (a.Packet.uid <> b.Packet.uid);
  (* Independent allocators are independent streams: a fresh one
     restarts from 1 without perturbing ours. *)
  let fresh = Packet.alloc () in
  Alcotest.(check int) "fresh allocator starts at 1" 1 (Packet.fresh_uid fresh)

let test_packet_fields () =
  let p =
    Packet.make ~alloc ~flow:7 ~pool:3 ~kind:Packet.Ack ~seq:42 ~size:40
      ~sacks:[ (50, 52) ] ~sent_at:1.5 ()
  in
  Alcotest.(check int) "flow" 7 p.Packet.flow;
  Alcotest.(check int) "pool" 3 p.Packet.pool;
  Alcotest.(check int) "seq" 42 p.Packet.seq;
  Alcotest.(check bool) "not retx by default" false p.Packet.retx

(* --- Disc.fifo_of_queue ------------------------------------------------ *)

let test_fifo_capacity () =
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:2 () in
  let p1 = mk_pkt () and p2 = mk_pkt () and p3 = mk_pkt () in
  Alcotest.(check int) "accept 1" 0 (List.length (disc.Disc.enqueue p1));
  Alcotest.(check int) "accept 2" 0 (List.length (disc.Disc.enqueue p2));
  let dropped = disc.Disc.enqueue p3 in
  Alcotest.(check int) "drop 3rd" 1 (List.length dropped);
  Alcotest.(check int) "len" 2 (disc.Disc.length ());
  Alcotest.(check int) "bytes" 1000 (disc.Disc.bytes ())

let test_fifo_order () =
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let p1 = mk_pkt ~seq:1 () and p2 = mk_pkt ~seq:2 () in
  ignore (disc.Disc.enqueue p1);
  ignore (disc.Disc.enqueue p2);
  (match disc.Disc.dequeue () with
  | Some p -> Alcotest.(check int) "fifo head" 1 p.Packet.seq
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "bytes track dequeue" 500 (disc.Disc.bytes ())

(* --- Link ------------------------------------------------------------- *)

let test_link_transmission_time () =
  (* 1000-byte packet at 8000 bps = 1 s of transmission + 0.5 s prop. *)
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrival = ref nan in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~prop_delay:0.5 ~disc
      ~deliver:(fun _ -> arrival := Sim.now sim)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "tx + prop" 1.5 !arrival

let test_link_serializes () =
  (* Two packets back to back: second is delayed by the first's
     transmission time. *)
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrivals = ref [] in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> arrivals := Sim.now sim :: !arrivals)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      Link.send link (mk_pkt ~size:1000 ());
      Link.send link (mk_pkt ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 1.0; 2.0 ] (List.rev !arrivals)

let test_link_counts_drops () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:1 () in
  let link =
    Link.create ~sim ~capacity_bps:1e6 ~prop_delay:0.0 ~disc ~deliver:(fun _ -> ()) ()
  in
  let drop_seen = ref 0 in
  Link.on_drop link (fun _ -> incr drop_seen);
  Sim.schedule sim ~at:0.0 (fun () ->
      (* First starts transmitting immediately (leaves queue), the
         next fills the 1-slot queue, the third drops. *)
      Link.send link (mk_pkt ());
      Link.send link (mk_pkt ());
      Link.send link (mk_pkt ());
      Link.send link (mk_pkt ()));
  Sim.run sim;
  let s = Link.stats link in
  Alcotest.(check int) "offered" 4 s.Link.offered;
  Alcotest.(check int) "dropped" 2 s.Link.dropped;
  Alcotest.(check int) "listener saw drops" 2 !drop_seen;
  Alcotest.(check int) "transmitted rest" 2 s.Link.transmitted

let test_link_utilization () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> ())
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  (* 1 s busy; run until t=2 so utilization = 0.5. *)
  Sim.schedule sim ~at:2.0 (fun () -> ());
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "utilization" 0.5 (Link.utilization link)

let test_link_work_conserving () =
  (* A packet arriving while idle starts transmitting immediately even
     after a previous busy period ended. *)
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrivals = ref [] in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~prop_delay:0.0 ~disc
      ~deliver:(fun _ -> arrivals := Sim.now sim :: !arrivals)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.schedule sim ~at:5.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "second not delayed" [ 1.0; 6.0 ]
    (List.rev !arrivals)

(* --- Dumbbell ---------------------------------------------------------- *)

let test_dumbbell_roundtrip () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e9 ~disc () in
  let fwd_time = ref nan and rev_time = ref nan in
  Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.2
    ~deliver_fwd:(fun _ ->
      fwd_time := Sim.now sim;
      Dumbbell.send_rev net (mk_pkt ~kind:Packet.Ack ()))
    ~deliver_rev:(fun _ -> rev_time := Sim.now sim);
  Sim.schedule sim ~at:0.0 (fun () -> Dumbbell.send_fwd net (mk_pkt ()));
  Sim.run sim;
  (* At ~infinite capacity transmission is negligible: RTT ~= rtt_prop. *)
  Alcotest.(check bool) "rtt close to prop" true
    (Float.abs (!rev_time -. 0.2) < 0.001)

let test_dumbbell_unknown_flow_evaporates () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1
    ~deliver_fwd:(fun _ -> ())
    ~deliver_rev:(fun _ -> ());
  Sim.schedule sim ~at:0.0 (fun () -> Dumbbell.send_fwd net (mk_pkt ()));
  Sim.schedule sim ~at:0.001 (fun () -> Dumbbell.unregister_flow net ~flow:1);
  (* The packet is in flight when the flow disappears; it must not
     crash the run. *)
  Sim.run sim;
  Alcotest.(check int) "no flows left" 0 (Dumbbell.flow_count net)

let test_dumbbell_duplicate_registration_rejected () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let nop _ = () in
  Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1 ~deliver_fwd:nop
    ~deliver_rev:nop;
  match
    Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1 ~deliver_fwd:nop
      ~deliver_rev:nop
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate registration should raise"

(* --- qcheck properties -------------------------------------------------- *)

let qcheck_rand = Qcheck_seed.rand ~file:"test_net"

(* Packet uids are unique within an allocator no matter how packet
   creation interleaves across two independent nets, and each
   allocator's uid stream is unperturbed by the other's activity
   (1, 2, 3, ... regardless of interleaving). *)
let prop_uid_uniqueness_two_nets =
  QCheck.Test.make ~name:"uid uniqueness across two nets" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) bool)
    (fun interleaving ->
      let alloc_a = Packet.alloc () and alloc_b = Packet.alloc () in
      let uids_a = ref [] and uids_b = ref [] in
      List.iter
        (fun first ->
          let alloc, uids =
            if first then (alloc_a, uids_a) else (alloc_b, uids_b)
          in
          let p =
            Packet.make ~alloc ~flow:0 ~kind:Packet.Data ~seq:0 ~size:100
              ~sent_at:0.0 ()
          in
          uids := p.Packet.uid :: !uids)
        interleaving;
      let consecutive_from_one l =
        (* Collected newest-first: must be n, n-1, ..., 1. *)
        let l = List.rev !l in
        List.for_all2 ( = ) l (List.mapi (fun i _ -> i + 1) l)
      in
      consecutive_from_one uids_a && consecutive_from_one uids_b)

(* A link's serialization delay is [size * 8 / capacity]: exact, and
   therefore monotone in packet size at fixed capacity. *)
let prop_serialization_monotone_in_size =
  QCheck.Test.make ~name:"serialization delay monotone in size" ~count:150
    QCheck.(
      triple (int_range 40 1500) (int_range 40 1500)
        (float_range 1e4 1e8 (* bps *)))
    (fun (s1, s2, capacity_bps) ->
      let arrival size =
        let sim = Sim.create () in
        let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:4 () in
        let at = ref nan in
        let link =
          Link.create ~sim ~capacity_bps ~prop_delay:0.01 ~disc
            ~deliver:(fun _ -> at := Sim.now sim)
            ()
        in
        Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size ()));
        Sim.run sim;
        !at
      in
      let a1 = arrival s1 and a2 = arrival s2 in
      let expect size = (float_of_int (size * 8) /. capacity_bps) +. 0.01 in
      (* Exact formula... *)
      Float.abs (a1 -. expect s1) < 1e-9
      && Float.abs (a2 -. expect s2) < 1e-9
      (* ...which implies monotonicity. *)
      && if s1 <= s2 then a1 <= a2 else a2 <= a1)

(* Whatever the traffic pattern, a dumbbell's delivered packets are
   distinct packets: no duplication, no loss out of thin air. *)
let prop_dumbbell_delivers_each_once =
  QCheck.Test.make ~name:"dumbbell delivers each accepted packet once"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 80) (int_range 0 3))
    (fun flows ->
      let sim = Sim.create () in
      let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:1000 () in
      let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
      let delivered = Hashtbl.create 64 in
      for f = 0 to 3 do
        Dumbbell.register_flow net ~flow:f ~rtt_prop:0.05
          ~deliver_fwd:(fun p ->
            if Hashtbl.mem delivered p.Packet.uid then
              QCheck.Test.fail_reportf "uid %d delivered twice" p.Packet.uid;
            Hashtbl.add delivered p.Packet.uid ())
          ~deliver_rev:(fun _ -> ())
      done;
      let alloc = Packet.alloc () in
      let sent = ref 0 in
      List.iteri
        (fun i flow ->
          Sim.schedule sim
            ~at:(0.001 *. float_of_int i)
            (fun () ->
              incr sent;
              Dumbbell.send_fwd net
                (Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:i ~size:500
                   ~sent_at:0.0 ())))
        flows;
      Sim.run sim;
      (* Queue is big enough that nothing drops: all arrive, each once. *)
      Hashtbl.length delivered = !sent)

(* Packet pooling: under arbitrary make/release interleavings no two
   simultaneously-live packets share a uid, liveness flags track
   release exactly, release is idempotent, and the free list holds
   precisely released-minus-revived records. *)
let prop_packet_pool_accounting =
  QCheck.Test.make ~name:"packet pool: live uids unique, free list exact"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 0 400) (int_range 0 5))
    (fun ops ->
      let a = Packet.alloc () in
      let live = ref [] in
      let released = ref 0 and revived = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i op ->
          (if op <= 2 || !live = [] then begin
             let before = Packet.free_count a in
             let p =
               Packet.make ~alloc:a ~flow:op ~kind:Packet.Data ~seq:i ~size:100
                 ~sent_at:0.0 ()
             in
             if before > 0 then begin
               incr revived;
               if Packet.free_count a <> before - 1 then ok := false
             end;
             live := p :: !live
           end
           else begin
             let n = List.length !live in
             let j = i mod n in
             let p = List.nth !live j in
             live := List.filteri (fun k _ -> k <> j) !live;
             let before = Packet.free_count a in
             Packet.release a p;
             incr released;
             if Packet.free_count a <> before + 1 then ok := false;
             if Packet.is_live p then ok := false;
             (* releasing a dead record is a no-op *)
             Packet.release a p;
             if Packet.free_count a <> before + 1 then ok := false
           end);
          let seen = Hashtbl.create 16 in
          List.iter
            (fun p ->
              if not (Packet.is_live p) then ok := false;
              if Hashtbl.mem seen p.Packet.uid then ok := false;
              Hashtbl.add seen p.Packet.uid ())
            !live)
        ops;
      !ok && Packet.free_count a = !released - !revived)

(* End-to-end recycling: congested TCP flows (with queue drops and
   retransmissions) run to completion on a pooled network, and the
   network's free list shows records actually being recycled. The
   per-discipline golden scalars pinning that pooling changed no
   simulation observable live in test_golden. *)
let test_pool_recycles_under_tcp_drops () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"bottleneck" ~capacity_pkts:8 () in
  let net = Dumbbell.create ~sim ~capacity_bps:4e5 ~disc () in
  let completions = ref 0 in
  let sessions =
    List.init 4 (fun _ ->
        Taq_tcp.Tcp_session.create ~net
          ~config:(Taq_tcp.Tcp_config.make ~use_syn:false ())
          ~rtt_prop:0.05 ~total_segments:200
          ~on_complete:(fun _ -> incr completions)
          ())
  in
  List.iter Taq_tcp.Tcp_session.start sessions;
  Sim.run sim;
  Alcotest.(check int) "all flows complete" 4 !completions;
  let st = Link.stats (Dumbbell.link net) in
  Alcotest.(check bool) "drops occurred" true (st.Link.dropped > 0);
  Alcotest.(check bool) "records recycled" true
    (Packet.free_count (Dumbbell.packet_alloc net) > 0)

let qcheck_props =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:qcheck_rand)
    [
      prop_uid_uniqueness_two_nets;
      prop_serialization_monotone_in_size;
      prop_dumbbell_delivers_each_once;
      prop_packet_pool_accounting;
    ]

let () =
  Alcotest.run "taq_net"
    [
      ( "packet",
        [
          Alcotest.test_case "uids" `Quick test_packet_uids_unique;
          Alcotest.test_case "fields" `Quick test_packet_fields;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "order" `Quick test_fifo_order;
        ] );
      ( "link",
        [
          Alcotest.test_case "tx time" `Quick test_link_transmission_time;
          Alcotest.test_case "serializes" `Quick test_link_serializes;
          Alcotest.test_case "drops" `Quick test_link_counts_drops;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
          Alcotest.test_case "work conserving" `Quick test_link_work_conserving;
        ] );
      ( "dumbbell",
        [
          Alcotest.test_case "roundtrip" `Quick test_dumbbell_roundtrip;
          Alcotest.test_case "evaporation" `Quick test_dumbbell_unknown_flow_evaporates;
          Alcotest.test_case "dup registration" `Quick
            test_dumbbell_duplicate_registration_rejected;
        ] );
      ( "pool",
        [
          Alcotest.test_case "recycles under tcp drops" `Quick
            test_pool_recycles_under_tcp_drops;
        ] );
      ("properties", qcheck_props);
    ]

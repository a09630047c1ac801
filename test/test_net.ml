(* Tests for taq_net: packets, the FIFO discipline helper, delay lines,
   link transmission timing and accounting, dumbbell delivery. *)

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
  Alcotest.(check int) "fresh allocator starts at 1" 1
    (Packet.make ~alloc:fresh ~flow:1 ~kind:Packet.Data ~seq:0 ~size:40
       ~sent_at:0.0 ())
      .Packet.uid

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

(* --- Delay_line ------------------------------------------------------- *)

(* A line re-sends every packet it delivers until [n] deliveries have
   gone by, with 8 packets in flight: once the ring, the slot table and
   the heap have grown, a send and its delivery allocate nothing, on
   the lane (delay 0) and on the heap. *)
let test_delay_line_allocation_free () =
  List.iter
    (fun delay ->
      let sim = Sim.create () in
      let remaining = ref 0 in
      let self = ref None in
      let deliver p =
        if !remaining > 0 then begin
          decr remaining;
          match !self with Some line -> Delay_line.send line p | None -> ()
        end
      in
      let line = Delay_line.create sim ~delay deliver in
      self := Some line;
      let pkts = List.init 8 (fun seq -> mk_pkt ~seq ()) in
      let send p = Delay_line.send line p in
      let cycle n =
        remaining := n;
        List.iter send pkts;
        Sim.run sim
      in
      cycle 1_000;
      let n = 100_000 in
      let before = Gc.minor_words () in
      cycle n;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "minor words per packet at delay %g" delay)
        0.0
        (words /. float_of_int n))
    [ 0.0; 0.01 ]

(* A closed line still delivers what it holds, to the deliverer it was
   closed with, gives its slot back once drained, and refuses sends
   from then on. *)
let test_delay_line_close () =
  let sim = Sim.create () in
  let got = ref [] in
  let note tag (p : Packet.t) =
    got := Printf.sprintf "%s%d" tag p.seq :: !got
  in
  let line = Delay_line.create sim ~delay:0.1 (note "open") in
  let idle = Sim.slots_in_use sim in
  Delay_line.send line (mk_pkt ~seq:1 ());
  Delay_line.send line (mk_pkt ~seq:2 ());
  Alcotest.(check int) "one slot for the line" (idle + 1)
    (Sim.slots_in_use sim);
  Delay_line.close line ~deliver:(note "closed");
  Sim.run sim;
  Alcotest.(check (list string)) "drained to the new deliverer"
    [ "closed1"; "closed2" ] (List.rev !got);
  Alcotest.(check int) "slot given back" idle (Sim.slots_in_use sim);
  (match Delay_line.send line (mk_pkt ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a closed, drained line accepted a send");
  (* A line closed before it ever sent holds no slot. *)
  let unused = Delay_line.create sim ~delay:0.1 (note "unused") in
  Delay_line.close unused ~deliver:(note "unused");
  Alcotest.(check int) "no slot taken" idle (Sim.slots_in_use sim)

(* --- Link ------------------------------------------------------------- *)

let test_link_transmission_time () =
  (* 1000-byte packet at 8000 bps = 1 s of transmission, delivered at
     its completion. *)
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrival = ref nan in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc
      ~deliver:(fun _ -> arrival := Sim.now sim)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "tx" 1.0 !arrival

let test_link_serializes () =
  (* Two packets back to back: second is delayed by the first's
     transmission time. *)
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrivals = ref [] in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc
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
    Link.create ~sim ~capacity_bps:1e6 ~disc ~deliver:(fun _ -> ()) ()
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
    Link.create ~sim ~capacity_bps:8000.0 ~disc
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
    Link.create ~sim ~capacity_bps:8000.0 ~disc
      ~deliver:(fun _ -> arrivals := Sim.now sim :: !arrivals)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.schedule sim ~at:5.0 (fun () -> Link.send link (mk_pkt ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "second not delayed" [ 1.0; 6.0 ]
    (List.rev !arrivals)

(* A burst: each packet leaves at its own completion time, in send
   order. Completion times accumulate as the link's clock does. *)
let test_link_burst_in_flight () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrivals = ref [] in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc
      ~deliver:(fun p -> arrivals := (p.Packet.seq, Sim.now sim) :: !arrivals)
      ()
  in
  let sizes = [ 1000; 200; 600; 40; 1500; 500 ] in
  Sim.schedule sim ~at:0.0 (fun () ->
      List.iteri (fun seq size -> Link.send link (mk_pkt ~seq ~size ())) sizes);
  Sim.run sim;
  let completed = ref 0.0 in
  let expected =
    List.mapi
      (fun seq size ->
        completed := !completed +. (float_of_int (size * 8) /. 8000.0);
        (seq, !completed))
      sizes
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "in order, at completion" expected (List.rev !arrivals)

(* The brownout hook: a packet already on the wire keeps its scheduled
   completion, and each later one takes size·8 / (capacity·factor). At
   8000 bps a 1000-byte packet takes 1 s at full rate and 2 s at half. *)
let test_link_rate_factor () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let arrivals = ref [] in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc
      ~deliver:(fun p -> arrivals := (p.Packet.seq, Sim.now sim) :: !arrivals)
      ()
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      Link.send link (mk_pkt ~seq:0 ~size:1000 ());
      Link.send link (mk_pkt ~seq:1 ~size:1000 ()));
  Sim.schedule sim ~at:0.5 (fun () -> Link.set_rate_factor link 0.5);
  Sim.schedule sim ~at:3.5 (fun () ->
      Link.set_rate_factor link 1.0;
      Link.send link (mk_pkt ~seq:2 ~size:1000 ()));
  Sim.run sim;
  Alcotest.(check (list (pair int (float 0.0))))
    "on the wire: unchanged; next: half rate; restored: full rate"
    [ (0, 1.0); (1, 3.0); (2, 4.5) ]
    (List.rev !arrivals)

let test_link_rate_factor_range () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc ~deliver:(fun _ -> ()) ()
  in
  List.iter
    (fun f ->
      match Link.set_rate_factor link f with
      | () -> Alcotest.failf "factor %g accepted" f
      | exception Invalid_argument _ -> ())
    [ 0.0; -0.5; 1.5; Float.nan; Float.infinity ];
  Link.set_rate_factor link 1.0;
  Link.set_rate_factor link Float.min_float

(* The delivery instant of a packet sent at 0 is its transmission time,
   bit for bit: no other term enters the rate. *)
let prop_tx_time_exact =
  QCheck.Test.make ~name:"tx time is size*8/(capacity*factor) exactly"
    ~count:200
    QCheck.(
      triple (int_range 40 1500)
        (float_range 1e4 1e10 (* bps *))
        (oneof [ always 1.0; float_range 0.01 1.0 ]))
    (fun (size, capacity_bps, factor) ->
      let sim = Sim.create () in
      let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:4 () in
      let at = ref nan in
      let link =
        Link.create ~sim ~capacity_bps ~disc
          ~deliver:(fun _ -> at := Sim.now sim)
          ()
      in
      Link.set_rate_factor link factor;
      Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size ()));
      Sim.run sim;
      Int64.bits_of_float !at
      = Int64.bits_of_float
          (float_of_int (size * 8) /. (capacity_bps *. factor)))

(* The link delivers where a zero-delay entry filed at the completion
   would run. A 1000-byte packet sent at 0 completes at 1.0. *)
let exit_fixture () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:10 () in
  let log = ref [] in
  let note label () = log := label :: !log in
  let link =
    Link.create ~sim ~capacity_bps:8000.0 ~disc ~deliver:(fun _ -> note "D" ())
      ()
  in
  (sim, link, note, fun () -> List.rev !log)

(* An event for the completion's instant, filed after the send (so
   after the completion's entry), runs before the delivery. *)
let test_link_exit_after_due_event () =
  let sim, link, note, log = exit_fixture () in
  Link.send link (mk_pkt ~size:1000 ());
  Sim.schedule sim ~at:1.0 (note "X");
  Sim.run sim;
  Alcotest.(check (list string)) "event, then delivery" [ "X"; "D" ] (log ())

(* A zero-delay entry made at the completion's instant, by an event
   that ran before the completion, runs before the delivery too. With
   nothing else due, the completion delivers in its own step. *)
let test_link_exit_after_lane_entry () =
  let sim, link, note, log = exit_fixture () in
  Sim.schedule sim ~at:1.0 (fun () ->
      note "E" ();
      Sim.schedule_after sim ~delay:0.0 (note "L"));
  Link.send link (mk_pkt ~size:1000 ());
  Sim.run sim;
  Alcotest.(check (list string))
    "event, its lane entry, then delivery" [ "E"; "L"; "D" ] (log ());
  Link.send link (mk_pkt ~size:1000 ());
  Alcotest.(check bool) "the completion" true (Sim.step sim);
  Alcotest.(check (list string))
    "delivered in the completion's step" [ "E"; "L"; "D"; "D" ] (log ());
  Alcotest.(check int) "nothing pending" 0 (Sim.pending_events sim)

(* --- Dumbbell ---------------------------------------------------------- *)

let test_dumbbell_roundtrip () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e9 ~disc () in
  let fwd_time = ref nan and rev_time = ref nan and port = ref None in
  port :=
    Some
      (Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.2
         ~deliver_fwd:(fun _ ->
           fwd_time := Sim.now sim;
           Dumbbell.send_rev (Option.get !port) (mk_pkt ~kind:Packet.Ack ()))
         ~deliver_rev:(fun _ -> rev_time := Sim.now sim));
  Sim.schedule sim ~at:0.0 (fun () ->
      Dumbbell.send_fwd (Option.get !port) (mk_pkt ()));
  Sim.run sim;
  (* At ~infinite capacity transmission is negligible: RTT ~= rtt_prop. *)
  Alcotest.(check bool) "rtt close to prop" true
    (Float.abs (!rev_time -. 0.2) < 0.001)

let test_dumbbell_unknown_flow_evaporates () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let port =
    Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1
      ~deliver_fwd:(fun _ -> ())
      ~deliver_rev:(fun _ -> ())
  in
  Sim.schedule sim ~at:0.0 (fun () -> Dumbbell.send_fwd port (mk_pkt ()));
  Sim.schedule sim ~at:0.001 (fun () -> Dumbbell.unregister_flow net ~flow:1);
  (* The packet is in flight when the flow disappears; it must not
     crash the run. *)
  Sim.run sim;
  Alcotest.(check int) "no flows left" 0 (Dumbbell.flow_count net)

(* A flow forgotten with packets on both of its lines: the lines
   drain. Access packets still reach the link; packets bound for the
   flow, forward or back, evaporate, untapped or through a return tap
   that delays them, and untapped records return to the pool. Each
   line took a calendar slot on its first send and gives it back once
   drained, and the flow's port refuses further sends. *)
let test_dumbbell_unregister_in_flight () =
  List.iter
    (fun tapped ->
      let sim = Sim.create () in
      let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
      let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
      let alloc = Dumbbell.packet_alloc net in
      if tapped then
        Dumbbell.set_rev_interceptor net
          (Some
             (fun p deliver ->
               Sim.schedule_after sim ~delay:0.01 (fun () -> deliver p)));
      let delivered = ref 0 and in_flight = ref 0 in
      let port =
        Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.4
          ~deliver_fwd:(fun _ -> incr delivered)
          ~deliver_rev:(fun _ -> incr delivered)
      in
      let pkt kind seq =
        Packet.make ~alloc ~flow:1 ~kind ~seq ~size:500 ~sent_at:0.0 ()
      in
      (* Access legs take 0.1 s, return legs 0.3 s. *)
      Sim.schedule sim ~at:0.05 (fun () ->
          Dumbbell.unregister_flow net ~flow:1);
      Sim.schedule sim ~at:0.0 (fun () ->
          for seq = 0 to 2 do
            Dumbbell.send_fwd port (pkt Packet.Data seq)
          done;
          for seq = 0 to 1 do
            Dumbbell.send_rev port (pkt Packet.Ack seq)
          done;
          in_flight := Sim.slots_in_use sim);
      Sim.run sim;
      let name s =
        Printf.sprintf "%s (%s)" s (if tapped then "tapped" else "untapped")
      in
      (* The link's transmitter, the pending unregistration and the
         flow's two lines. *)
      Alcotest.(check int) (name "slots while in flight") 4 !in_flight;
      (* The link's transmitter: both of the flow's slots came back. *)
      Alcotest.(check int) (name "slots once drained") 1 (Sim.slots_in_use sim);
      let st = Link.stats (Dumbbell.link net) in
      Alcotest.(check int) (name "access packets reached the link") 3
        st.Link.offered;
      Alcotest.(check int) (name "and crossed it") 3 st.Link.transmitted;
      Alcotest.(check int) (name "nothing delivered") 0 !delivered;
      (* A tapped path never releases its deliveries. *)
      Alcotest.(check int)
        (name "untapped records back in the pool")
        (if tapped then 3 else 5)
        (Packet.free_count alloc);
      Alcotest.check_raises (name "send_fwd to a forgotten flow")
        (Invalid_argument "Dumbbell: unknown flow") (fun () ->
          Dumbbell.send_fwd port (pkt Packet.Data 3));
      Alcotest.check_raises (name "send_rev to a forgotten flow")
        (Invalid_argument "Dumbbell: unknown flow") (fun () ->
          Dumbbell.send_rev port (pkt Packet.Ack 3)))
    [ false; true ]

(* 10 000 flows, each registered to send one packet and unregistered
   once the packet crosses the link or the queue drops it, as a flood
   does: every access line gives its slot back, so the slot table
   holds only the flows in flight and ends with the link's one slot. *)
let test_dumbbell_flood_slots_bounded () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  (* 40-byte packets every 0.1 ms into 1 Mb/s: the queue fills and
     drops. *)
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let alloc = Dumbbell.packet_alloc net in
  let flows = 10_000 and peak = ref 0 and crossed = ref 0 in
  Link.on_drop (Dumbbell.link net) (fun p ->
      Dumbbell.unregister_flow net ~flow:p.Packet.flow);
  (* Each arrival files the next, so pending arrivals hold one slot. *)
  let rec arrive flow () =
    let port =
      Dumbbell.register_flow net ~flow ~rtt_prop:0.05
        ~deliver_fwd:(fun _ ->
          incr crossed;
          Dumbbell.unregister_flow net ~flow)
        ~deliver_rev:(fun _ -> ())
    in
    Dumbbell.send_fwd port
      (Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:0 ~size:40
         ~sent_at:(Sim.now sim) ());
    peak := Stdlib.max !peak (Sim.slots_in_use sim);
    if flow < flows then Sim.schedule_after sim ~delay:1e-4 (arrive (flow + 1))
  in
  Sim.schedule sim ~at:0.0 (arrive 1);
  Sim.run sim;
  let st = Link.stats (Dumbbell.link net) in
  Alcotest.(check bool) "some dropped" true (st.Link.dropped > 0);
  Alcotest.(check int) "every packet crossed or dropped" flows
    (!crossed + st.Link.dropped);
  Alcotest.(check int) "no flows left" 0 (Dumbbell.flow_count net);
  (* About 125 packets wait on access lines (12.5 ms at 0.1 ms
     spacing); a line that kept its slot would hold one per flow. *)
  if !peak > 200 then
    Alcotest.failf "%d slots in use at the peak, want at most 200" !peak;
  Alcotest.(check int) "the link's slot remains" 1 (Sim.slots_in_use sim)

(* One data packet out and its ACK back through an untapped dumbbell
   with a FIFO disc, one round trip at a time. The delay lines box no
   delay and allocate nothing; what remains is the link's. In the
   release build that is the disc's [Some], one per round trip: 2.0
   words. Under [--profile dev]'s [-opaque], [Sim.transmit] is a call,
   and the transmission time it takes is boxed too: 4.0. (Before lib/'s
   inlining budget both read 6.0.) *)
let test_dumbbell_round_trip_words () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:64 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e8 ~disc () in
  let alloc = Dumbbell.packet_alloc net in
  let remaining = ref 0 in
  let pkt kind =
    Packet.make_exact ~alloc ~flow:1 ~pool:(-1) ~kind ~seq:0 ~size:1000
      ~retx:false ~sacks:[] ~sent_at:0.0
  in
  let port = ref None in
  let send_data () = Dumbbell.send_fwd (Option.get !port) (pkt Packet.Data) in
  port :=
    Some
      (Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1
         ~deliver_fwd:(fun _ ->
           Dumbbell.send_rev (Option.get !port) (pkt Packet.Ack))
         ~deliver_rev:(fun _ ->
           if !remaining > 0 then begin
             decr remaining;
             send_data ()
           end));
  let cycle n =
    remaining := n;
    send_data ();
    Sim.run sim
  in
  cycle 1_000;
  let n = 100_000 in
  let before = Gc.minor_words () in
  cycle n;
  (* n + 1 round trips: the first data packet and its n successors. *)
  let words = (Gc.minor_words () -. before) /. float_of_int (n + 1) in
  let bound = if Build_profile.name = "release" then 2.0 else 4.0 in
  if words > bound then
    Alcotest.failf
      "%g minor words per round trip, want at most %g (%s profile)" words
      bound Build_profile.name

let test_dumbbell_duplicate_registration_rejected () =
  let sim = Sim.create () in
  let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:50 () in
  let net = Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
  let nop _ = () in
  ignore
    (Dumbbell.register_flow net ~flow:1 ~rtt_prop:0.1 ~deliver_fwd:nop
       ~deliver_rev:nop);
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
          Link.create ~sim ~capacity_bps ~disc
            ~deliver:(fun _ -> at := Sim.now sim)
            ()
        in
        Sim.schedule sim ~at:0.0 (fun () -> Link.send link (mk_pkt ~size ()));
        Sim.run sim;
        !at
      in
      let a1 = arrival s1 and a2 = arrival s2 in
      let expect size = float_of_int (size * 8) /. capacity_bps in
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
      let ports =
        Array.init 4 (fun f ->
            Dumbbell.register_flow net ~flow:f ~rtt_prop:0.05
              ~deliver_fwd:(fun p ->
                if Hashtbl.mem delivered p.Packet.uid then
                  QCheck.Test.fail_reportf "uid %d delivered twice"
                    p.Packet.uid;
                Hashtbl.add delivered p.Packet.uid ())
              ~deliver_rev:(fun _ -> ()))
      in
      let alloc = Packet.alloc () in
      let sent = ref 0 in
      List.iteri
        (fun i flow ->
          Sim.schedule sim
            ~at:(0.001 *. float_of_int i)
            (fun () ->
              incr sent;
              Dumbbell.send_fwd ports.(flow)
                (Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:i ~size:500
                   ~sent_at:0.0 ())))
        flows;
      Sim.run sim;
      (* Queue is big enough that nothing drops: all arrive, each once. *)
      Hashtbl.length delivered = !sent)

(* 1-4 delay lines with delays drawn from {0, 0.05, 0.1, 0.1, 0.25},
   so that lines share a delay and exact ties occur, fed at grid
   times; some deliveries send again from inside the delivery. Every
   packet leaves once, on its own line, at its send time plus the
   line's delay, and the deliveries run in the order of the log of
   sends sorted by (due time, send index): each line is FIFO, and
   lines interleave as the calendar breaks ties. *)
let prop_delay_lines_fifo =
  let delays = [| 0.0; 0.05; 0.1; 0.1; 0.25 |] in
  QCheck.Test.make ~name:"delay lines deliver in (due, send) order"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (int_range 0 4))
        (list_of_size (Gen.int_range 0 40)
           (triple (int_range 0 10) (int_range 0 3) (int_range 0 2))))
    (fun (which, plan) ->
      let sim = Sim.create () in
      let delay_of = Array.of_list (List.map (fun i -> delays.(i)) which) in
      let n_lines = Array.length delay_of in
      let lines = Array.make n_lines None in
      (* (seq, line, due) per send, newest first; seq is the send index *)
      let sent = ref [] and delivered = ref [] in
      let resends = Hashtbl.create 16 in
      let send line n =
        let seq = List.length !sent in
        sent := (seq, line, Sim.now sim +. delay_of.(line)) :: !sent;
        Hashtbl.replace resends seq n;
        Option.iter (fun l -> Delay_line.send l (mk_pkt ~seq ())) lines.(line)
      in
      let deliver line (p : Packet.t) =
        delivered := (p.seq, line, Sim.now sim) :: !delivered;
        let n = Hashtbl.find resends p.seq in
        if n > 0 then send ((line + 1) mod n_lines) (n - 1)
      in
      Array.iteri
        (fun i delay ->
          lines.(i) <- Some (Delay_line.create sim ~delay (deliver i)))
        delay_of;
      List.iter
        (fun (slot, line, n) ->
          Sim.schedule sim
            ~at:(0.05 *. float_of_int slot)
            (fun () -> send (line mod n_lines) n))
        plan;
      Sim.run sim;
      let expected =
        List.stable_sort
          (fun (_, _, a) (_, _, b) -> Float.compare a b)
          (List.rev !sent)
      in
      let got = List.rev !delivered in
      let show l =
        String.concat "; "
          (List.map (fun (s, l, t) -> Printf.sprintf "%d/%d@%g" s l t) l)
      in
      if got <> expected then
        QCheck.Test.fail_reportf "delivered [%s], model [%s]" (show got)
          (show expected);
      Sim.pending_events sim = 0)

(* The link's exit against [Link_ref], whose exit is a zero-delay
   delay line. Packets of random sizes are sent at times on a 1/16 s
   grid, into 8192 b/s: a size that is a multiple of 64 bytes takes a
   whole number of grid steps, so completions tie with other events.
   Besides the sends, the plan files events at grid instants before
   any transmission starts (some of which file a zero-delay event when
   they run), events filed right after a send (so after its
   transmission started, when the link was idle), and re-arms of one
   timer a few grid steps on. A delivery may file a zero-delay event,
   send again at once, or file an event a few grid steps on that files
   a zero-delay event. The (time, label) logs must be equal. *)
let prop_link_exit_matches_reference =
  let size =
    QCheck.Gen.(
      oneof [ map (fun k -> 64 * k) (int_range 1 8); int_range 40 1500 ])
  in
  let run ~reference plan =
    let sim = Sim.create () in
    let timer = Sim.timer sim in
    let log = ref [] in
    let note label = log := (Sim.now sim, label) :: !log in
    let sent = ref 0 in
    let packet size =
      let seq = !sent in
      incr sent;
      mk_pkt ~seq ~size ()
    in
    let send = ref (fun (_ : Packet.t) -> ()) in
    let grid slot = float_of_int slot /. 16.0 in
    let deliver (p : Packet.t) =
      note (Printf.sprintf "D%d" p.seq);
      match p.seq mod 4 with
      | 1 ->
          Sim.schedule_after sim ~delay:0.0 (fun () ->
              note (Printf.sprintf "Z%d" p.seq))
      | 2 when !sent < 200 -> !send (packet 64)
      | 3 ->
          (* Filed after the next transmission started: at a tie, that
             completion runs first. *)
          Sim.schedule_after sim
            ~delay:(grid (1 + (p.seq / 4 mod 4)))
            (fun () ->
              note (Printf.sprintf "W%d" p.seq);
              Sim.schedule_after sim ~delay:0.0 (fun () ->
                  note (Printf.sprintf "V%d" p.seq)))
      | _ -> ()
    in
    (send :=
       if reference then
         Link_ref.send (Link_ref.create sim ~capacity_bps:8192.0 deliver)
       else
         let disc = Disc.fifo_of_queue ~name:"t" ~capacity_pkts:100_000 () in
         Link.send (Link.create ~sim ~capacity_bps:8192.0 ~disc ~deliver ()));
    List.iteri
      (fun i (slot, kind, size, after) ->
        Sim.schedule sim ~at:(grid slot) (fun () ->
            note (Printf.sprintf "%c%d" "SSXY".[kind] i);
            match kind with
            | 0 | 1 ->
                !send (packet size);
                if after > 0 then
                  Sim.schedule sim ~at:(grid (slot + after)) (fun () ->
                      note (Printf.sprintf "A%d" i))
            | 2 ->
                if after > 0 then
                  Sim.arm timer ~delay:(grid after) (fun () ->
                      note (Printf.sprintf "T%d" i))
            | _ ->
                Sim.schedule_after sim ~delay:0.0 (fun () ->
                    note (Printf.sprintf "L%d" i))))
      plan;
    Sim.run sim;
    List.rev !log
  in
  QCheck.Test.make ~name:"link exit == zero-delay line" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (quad (int_range 0 40) (int_range 0 3) (make size) (int_range 0 4)))
    (fun plan ->
      let got = run ~reference:false plan and want = run ~reference:true plan in
      let show l =
        String.concat "; "
          (List.map (fun (t, l) -> Printf.sprintf "%s@%g" l t) l)
      in
      if got <> want then
        QCheck.Test.fail_reportf "link [%s], reference [%s]" (show got)
          (show want);
      true)

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
      prop_delay_lines_fifo;
      prop_link_exit_matches_reference;
      prop_packet_pool_accounting;
      prop_tx_time_exact;
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
      ( "delay line",
        [
          Alcotest.test_case "allocation-free" `Quick
            test_delay_line_allocation_free;
          Alcotest.test_case "close" `Quick test_delay_line_close;
        ] );
      ( "link",
        [
          Alcotest.test_case "tx time" `Quick test_link_transmission_time;
          Alcotest.test_case "serializes" `Quick test_link_serializes;
          Alcotest.test_case "drops" `Quick test_link_counts_drops;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
          Alcotest.test_case "work conserving" `Quick test_link_work_conserving;
          Alcotest.test_case "burst in flight" `Quick test_link_burst_in_flight;
          Alcotest.test_case "rate factor" `Quick test_link_rate_factor;
          Alcotest.test_case "rate factor outside (0, 1] rejected" `Quick
            test_link_rate_factor_range;
          Alcotest.test_case "exit after an event due" `Quick
            test_link_exit_after_due_event;
          Alcotest.test_case "exit after a lane entry" `Quick
            test_link_exit_after_lane_entry;
        ] );
      ( "dumbbell",
        [
          Alcotest.test_case "roundtrip" `Quick test_dumbbell_roundtrip;
          Alcotest.test_case "evaporation" `Quick test_dumbbell_unknown_flow_evaporates;
          Alcotest.test_case "unregister in flight" `Quick
            test_dumbbell_unregister_in_flight;
          Alcotest.test_case "flood slots bounded" `Quick
            test_dumbbell_flood_slots_bounded;
          Alcotest.test_case "round trip words" `Quick
            test_dumbbell_round_trip_words;
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

(* Tests for the classic queue disciplines: droptail, RED, SFQ. *)

open Taq_net
open Taq_queueing

let alloc = Packet.alloc ()

let mk_pkt ?(flow = 1) ?(seq = 0) ?(size = 500) () =
  Packet.make ~alloc ~flow ~kind:Packet.Data ~seq ~size ~sent_at:0.0 ()

(* --- Droptail ----------------------------------------------------------- *)

let test_droptail_tail_drop () =
  let d = Droptail.create ~capacity_pkts:3 in
  for i = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "accept %d" i)
      0
      (List.length (d.Disc.enqueue (mk_pkt ~seq:i ())))
  done;
  let p4 = mk_pkt ~seq:4 () in
  (match d.Disc.enqueue p4 with
  | [ dropped ] -> Alcotest.(check int) "arrival dropped" 4 dropped.Packet.seq
  | _ -> Alcotest.fail "expected exactly the arrival dropped");
  (* Heads are unaffected. *)
  match d.Disc.dequeue () with
  | Some p -> Alcotest.(check int) "fifo preserved" 1 p.Packet.seq
  | None -> Alcotest.fail "queue should be non-empty"

let test_droptail_capacity_for_rtt () =
  (* 1 Mbps * 0.4 s / (8 * 500 B) = 100 packets. *)
  Alcotest.(check int) "paper's 1-RTT sizing" 100
    (Droptail.capacity_for_rtt ~capacity_bps:1e6 ~rtt:0.4 ~pkt_bytes:500);
  Alcotest.(check int) "at least 1" 1
    (Droptail.capacity_for_rtt ~capacity_bps:1000.0 ~rtt:0.001 ~pkt_bytes:1500)

(* --- RED ----------------------------------------------------------------- *)

let test_red_no_drop_when_short () =
  let prng = Taq_util.Prng.create ~seed:1 in
  let d = Red.create ~capacity_pkts:100 ~now:(fun () -> 0.0) ~prng () in
  (* With the average below min_th nothing is dropped. *)
  let drops = ref 0 in
  for i = 1 to 10 do
    drops := !drops + List.length (d.Disc.enqueue (mk_pkt ~seq:i ()));
    ignore (d.Disc.dequeue ())
  done;
  Alcotest.(check int) "no early drops at low load" 0 !drops

let test_red_drops_under_sustained_load () =
  let prng = Taq_util.Prng.create ~seed:2 in
  let d = Red.create ~capacity_pkts:50 ~now:(fun () -> 0.0) ~prng () in
  (* Fill without draining: the average climbs past max_th and forced
     drops begin. *)
  let drops = ref 0 in
  for i = 1 to 5000 do
    drops := !drops + List.length (d.Disc.enqueue (mk_pkt ~seq:i ()))
  done;
  Alcotest.(check bool) "drops happen" true (!drops > 0);
  Alcotest.(check bool) "hard cap respected" true (d.Disc.length () <= 50)

let test_red_probabilistic_region () =
  (* Hold the instantaneous queue between min_th and max_th long enough
     for the EWMA to settle there; drops should be probabilistic (some,
     but not all). *)
  let prng = Taq_util.Prng.create ~seed:3 in
  let params = { Red.min_th = 5.0; max_th = 15.0; max_p = 0.5; weight = 0.2 } in
  let d = Red.create ~params ~capacity_pkts:100 ~now:(fun () -> 0.0) ~prng () in
  (* Keep ~10 packets resident. *)
  for i = 1 to 10 do
    ignore (d.Disc.enqueue (mk_pkt ~seq:i ()))
  done;
  let offered = 2000 and drops = ref 0 in
  for i = 1 to offered do
    (match d.Disc.enqueue (mk_pkt ~seq:(10 + i) ()) with
    | [] -> ignore (d.Disc.dequeue ())
    | _ -> incr drops)
  done;
  Alcotest.(check bool) "some dropped" true (!drops > 0);
  Alcotest.(check bool) "not all dropped" true (!drops < offered)

(* --- SFQ ----------------------------------------------------------------- *)

let test_sfq_round_robin () =
  let d = Sfq.create ~capacity_pkts:100 () in
  (* Flow 1 floods, flow 2 sends one packet; flow 2's packet must not
     wait behind all of flow 1's. *)
  for i = 1 to 10 do
    ignore (d.Disc.enqueue (mk_pkt ~flow:1 ~seq:i ()))
  done;
  ignore (d.Disc.enqueue (mk_pkt ~flow:2 ~seq:100 ()));
  let position = ref None in
  for pos = 1 to 11 do
    match d.Disc.dequeue () with
    | Some p when p.Packet.flow = 2 -> if !position = None then position := Some pos
    | Some _ -> ()
    | None -> Alcotest.fail "queue exhausted early"
  done;
  match !position with
  | Some pos ->
      Alcotest.(check bool)
        (Printf.sprintf "flow 2 served at position %d <= 2" pos)
        true (pos <= 2)
  | None -> Alcotest.fail "flow 2 never served"

let test_sfq_pushout_hits_longest () =
  let d = Sfq.create ~capacity_pkts:10 () in
  for i = 1 to 9 do
    ignore (d.Disc.enqueue (mk_pkt ~flow:1 ~seq:i ()))
  done;
  ignore (d.Disc.enqueue (mk_pkt ~flow:2 ~seq:100 ()));
  (* Queue is now full; a new arrival from flow 2 pushes out from the
     longest bucket, which is flow 1's. *)
  (match d.Disc.enqueue (mk_pkt ~flow:2 ~seq:101 ()) with
  | [ victim ] -> Alcotest.(check int) "victim from flow 1" 1 victim.Packet.flow
  | _ -> Alcotest.fail "expected one push-out victim");
  Alcotest.(check int) "occupancy unchanged" 10 (d.Disc.length ())

let test_sfq_conservation () =
  let d = Sfq.create ~capacity_pkts:64 () in
  let enq = ref 0 and dropped = ref 0 in
  let prng = Taq_util.Prng.create ~seed:4 in
  for i = 1 to 500 do
    let flow = 1 + Taq_util.Prng.int prng 20 in
    let drops = d.Disc.enqueue (mk_pkt ~flow ~seq:i ()) in
    dropped := !dropped + List.length drops;
    incr enq
  done;
  let deq = ref 0 in
  let rec drain () =
    match d.Disc.dequeue () with
    | Some _ ->
        incr deq;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "enqueued = dequeued + dropped" !enq (!deq + !dropped)

let test_sfq_bytes_accounting () =
  let d = Sfq.create ~capacity_pkts:10 () in
  ignore (d.Disc.enqueue (mk_pkt ~flow:1 ~size:100 ()));
  ignore (d.Disc.enqueue (mk_pkt ~flow:2 ~size:200 ()));
  Alcotest.(check int) "bytes" 300 (d.Disc.bytes ());
  ignore (d.Disc.dequeue ());
  Alcotest.(check bool) "bytes decrease" true (d.Disc.bytes () < 300)


(* --- DRR ----------------------------------------------------------------- *)

let test_drr_round_robin_bytes () =
  (* Two backlogged flows with equal-size packets are served strictly
     alternately. *)
  let d = Drr.create ~capacity_pkts:100 () in
  for i = 1 to 5 do
    ignore (d.Disc.enqueue (mk_pkt ~flow:1 ~seq:i ()));
    ignore (d.Disc.enqueue (mk_pkt ~flow:2 ~seq:(100 + i) ()))
  done;
  let served = List.init 6 (fun _ ->
      match d.Disc.dequeue () with Some p -> p.Packet.flow | None -> -1)
  in
  (* Consecutive pairs always cover both flows. *)
  let rec pairs = function
    | a :: b :: rest ->
        Alcotest.(check bool) "alternating" true (a <> b);
        pairs rest
    | _ -> ()
  in
  pairs served

let test_drr_byte_fairness_with_unequal_packets () =
  (* Flow 1 sends 1000 B packets, flow 2 sends 250 B packets: over a
     round, flow 2 should get ~4 packets per flow-1 packet. *)
  let d = Drr.create ~quantum_bytes:250 ~capacity_pkts:200 () in
  for i = 1 to 20 do
    ignore (d.Disc.enqueue (mk_pkt ~flow:1 ~seq:i ~size:1000 ()));
    for j = 1 to 4 do
      ignore (d.Disc.enqueue (mk_pkt ~flow:2 ~seq:((100 * i) + j) ~size:250 ()))
    done
  done;
  let bytes = Hashtbl.create 4 in
  for _ = 1 to 40 do
    match d.Disc.dequeue () with
    | Some p ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt bytes p.Packet.flow) in
        Hashtbl.replace bytes p.Packet.flow (prev + p.Packet.size)
    | None -> ()
  done;
  let b1 = Option.value ~default:0 (Hashtbl.find_opt bytes 1) in
  let b2 = Option.value ~default:0 (Hashtbl.find_opt bytes 2) in
  let ratio = float_of_int b1 /. float_of_int (Stdlib.max 1 b2) in
  Alcotest.(check bool)
    (Printf.sprintf "byte shares close (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.6)

let test_drr_conservation () =
  let d = Drr.create ~capacity_pkts:32 () in
  let prng = Taq_util.Prng.create ~seed:5 in
  let enq = ref 0 and dropped = ref 0 and deq = ref 0 in
  for i = 1 to 500 do
    if Int64.logand (Taq_util.Prng.bits64 prng) 1L = 1L then begin
      incr enq;
      dropped :=
        !dropped
        + List.length
            (d.Disc.enqueue (mk_pkt ~flow:(Taq_util.Prng.int prng 12) ~seq:i ()))
    end
    else match d.Disc.dequeue () with Some _ -> incr deq | None -> ()
  done;
  let rec drain () =
    match d.Disc.dequeue () with Some _ -> incr deq; drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "conservation" !enq (!deq + !dropped)

let test_drr_capacity_respected () =
  let d = Drr.create ~capacity_pkts:10 () in
  for i = 1 to 50 do
    ignore (d.Disc.enqueue (mk_pkt ~flow:(i mod 5) ~seq:i ()))
  done;
  Alcotest.(check bool) "capacity bound" true (d.Disc.length () <= 10)

let prop_droptail_never_exceeds_capacity =
  QCheck.Test.make ~name:"droptail occupancy <= capacity" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 100) bool))
    (fun (cap, ops) ->
      let d = Droptail.create ~capacity_pkts:cap in
      List.for_all
        (fun is_enq ->
          if is_enq then ignore (d.Disc.enqueue (mk_pkt ()))
          else ignore (d.Disc.dequeue ());
          d.Disc.length () <= cap)
        ops)

let prop_sfq_never_exceeds_capacity =
  QCheck.Test.make ~name:"sfq occupancy <= capacity" ~count:100
    QCheck.(
      pair (int_range 1 20)
        (list_of_size Gen.(int_range 0 100) (pair bool (int_range 1 10))))
    (fun (cap, ops) ->
      let d = Sfq.create ~capacity_pkts:cap () in
      List.for_all
        (fun (is_enq, flow) ->
          if is_enq then ignore (d.Disc.enqueue (mk_pkt ~flow ()))
          else ignore (d.Disc.dequeue ());
          d.Disc.length () <= cap)
        ops)

(* --- the AQM zoo: CHOKe / CHOKeD / CoDel / LAS --------------------------- *)

(* Pinned-seed determinism for the randomized CHOKe family: replaying
   the same operation sequence against a fresh disc with the same PRNG
   seed must reproduce the exact transcript (every victim, every
   served packet), or the discipline has picked up a hidden source of
   nondeterminism and sweep caching / jobs-independence breaks. *)
let transcript mk_disc ~seed ops =
  let prng = Taq_util.Prng.create ~seed in
  let d = mk_disc ~prng in
  let seq = ref 0 in
  List.concat_map
    (fun (is_enq, flow) ->
      if is_enq then begin
        incr seq;
        d.Disc.enqueue (mk_pkt ~flow ~seq:!seq ())
        |> List.map (fun (v : Packet.t) ->
               Printf.sprintf "drop:%d.%d" v.Packet.flow v.Packet.seq)
      end
      else
        match d.Disc.dequeue () with
        | Some p -> [ Printf.sprintf "serve:%d.%d" p.Packet.flow p.Packet.seq ]
        | None -> [ "serve:-" ])
    ops

let ops_arb =
  QCheck.(
    pair (int_range 0 10_000)
      (list_of_size Gen.(int_range 0 300) (pair bool (int_range 1 8))))

let prop_choke_pinned_seed_deterministic =
  QCheck.Test.make ~name:"choke replay under pinned seed is identical"
    ~count:100 ops_arb
    (fun (seed, ops) ->
      let mk ~prng = Choke.create ~capacity_pkts:16 ~prng () in
      transcript mk ~seed ops = transcript mk ~seed ops)

let prop_choked_pinned_seed_deterministic =
  QCheck.Test.make ~name:"choked replay under pinned seed is identical"
    ~count:100 ops_arb
    (fun (seed, ops) ->
      let mk ~prng = Choked.create ~capacity_pkts:16 ~prng () in
      transcript mk ~seed ops = transcript mk ~seed ops)

(* Byte conservation across the whole zoo, with the shadow model
   watching: every byte offered is either in the queue, served, or
   reported dropped — and Checked.wrap (mode Raise) turns any
   length/bytes/membership lie into an immediate failure. The clock
   advances between ops so CoDel's sojourn control law actually
   engages, exercising the dequeue_drops path through the wrapper. *)
let prop_zoo_conserves_bytes =
  QCheck.Test.make
    ~name:"choke/choked/codel/las conserve bytes under the shadow model"
    ~count:60
    QCheck.(
      pair (int_range 0 10_000)
        (list_of_size
           Gen.(int_range 0 250)
           (triple bool (int_range 1 8) (int_range 100 1000))))
    (fun (seed, ops) ->
      let mk_disc ~now = function
        | "choke" ->
            Choke.create ~capacity_pkts:16
              ~prng:(Taq_util.Prng.create ~seed) ()
        | "choked" ->
            Choked.create ~capacity_pkts:16
              ~prng:(Taq_util.Prng.create ~seed) ()
        | "codel" ->
            let params = { Codel.target = 0.02; interval = 0.1 } in
            Codel.create ~params ~capacity_pkts:16 ~now ()
        | "las" -> Las.create ~capacity_pkts:16 ()
        | _ -> assert false
      in
      List.for_all
        (fun name ->
          let clock = ref 0.0 in
          let check =
            Taq_check.Check.create ~mode:Taq_check.Check.Raise
              ~groups:[ Taq_check.Check.Queueing ] ()
          in
          let d = Checked.wrap ~check (mk_disc ~now:(fun () -> !clock) name) in
          let offered = ref 0 and out = ref 0 in
          let seq = ref 0 in
          let account (v : Packet.t) = out := !out + v.Packet.size in
          List.iter
            (fun (is_enq, flow, size) ->
              clock := !clock +. 0.005;
              if is_enq then begin
                incr seq;
                offered := !offered + size;
                List.iter account (d.Disc.enqueue (mk_pkt ~flow ~seq:!seq ~size ()))
              end
              else begin
                (match d.Disc.dequeue () with
                | Some p -> account p
                | None -> ());
                List.iter account (d.Disc.dequeue_drops ())
              end)
            ops;
          !offered = !out + d.Disc.bytes ())
        [ "choke"; "choked"; "codel"; "las" ])

(* CoDel metamorphic property: under the same sustained-overload
   schedule (deterministic — CoDel has no PRNG), raising the sojourn
   target can only relax the controller, so the control-law drop count
   must be non-increasing in the target. The buffer is oversized so
   every drop counted is CoDel's own, never a capacity tail-drop. *)
let codel_overload_drops ~target =
  let clock = ref 0.0 in
  let params = { Codel.target; interval = 0.1 } in
  let d = Codel.create ~params ~capacity_pkts:10_000 ~now:(fun () -> !clock) () in
  let drops = ref 0 and seq = ref 0 in
  for tick = 1 to 4000 do
    clock := !clock +. 0.01;
    incr seq;
    assert (d.Disc.enqueue (mk_pkt ~seq:!seq ()) = []);
    (* every 5th tick a second arrival: 20% sustained overload *)
    if tick mod 5 = 0 then begin
      incr seq;
      assert (d.Disc.enqueue (mk_pkt ~seq:!seq ()) = [])
    end;
    ignore (d.Disc.dequeue ());
    drops := !drops + List.length (d.Disc.dequeue_drops ())
  done;
  !drops

let test_codel_drops_monotone_in_target () =
  let targets = [ 0.01; 0.02; 0.05; 0.1; 0.25 ] in
  let counts = List.map (fun target -> codel_overload_drops ~target) targets in
  (match counts with
  | loosest_last :: _ ->
      Alcotest.(check bool)
        "tightest target actually drops" true (loosest_last > 0)
  | [] -> ());
  let rec check_pairs = function
    | a :: b :: rest ->
        Alcotest.(check bool)
          (Printf.sprintf "drops %d >= %d as target grows" a b)
          true (a >= b);
        check_pairs (b :: rest)
    | _ -> ()
  in
  check_pairs counts

let () =
  Alcotest.run "taq_queueing"
    [
      ( "droptail",
        [
          Alcotest.test_case "tail drop" `Quick test_droptail_tail_drop;
          Alcotest.test_case "rtt sizing" `Quick test_droptail_capacity_for_rtt;
        ] );
      ( "red",
        [
          Alcotest.test_case "no drop when short" `Quick test_red_no_drop_when_short;
          Alcotest.test_case "drops under load" `Quick test_red_drops_under_sustained_load;
          Alcotest.test_case "probabilistic region" `Quick test_red_probabilistic_region;
        ] );
      ( "sfq",
        [
          Alcotest.test_case "round robin" `Quick test_sfq_round_robin;
          Alcotest.test_case "pushout longest" `Quick test_sfq_pushout_hits_longest;
          Alcotest.test_case "conservation" `Quick test_sfq_conservation;
          Alcotest.test_case "bytes" `Quick test_sfq_bytes_accounting;
        ] );
      ( "drr",
        [
          Alcotest.test_case "round robin" `Quick test_drr_round_robin_bytes;
          Alcotest.test_case "byte fairness" `Quick
            test_drr_byte_fairness_with_unequal_packets;
          Alcotest.test_case "conservation" `Quick test_drr_conservation;
          Alcotest.test_case "capacity" `Quick test_drr_capacity_respected;
        ] );
      ( "codel",
        [
          Alcotest.test_case "drops monotone in target" `Quick
            test_codel_drops_monotone_in_target;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_queueing"))
          [
            prop_droptail_never_exceeds_capacity;
            prop_sfq_never_exceeds_capacity;
            prop_choke_pinned_seed_deterministic;
            prop_choked_pinned_seed_deterministic;
            prop_zoo_conserves_bytes;
          ] );
    ]

(* Tests for the invariant-checking layer (lib/check) and the batteries
   built on it:

   - Check.t unit tests (masking, modes, counters, policy, merging);
   - hook smoke tests: instrumented simulations run thousands of checks
     with zero violations, and a deliberately-lying discipline is
     caught by the shadow model;
   - a differential battery: every qdisc (droptail, red, sfq, drr, taq)
     cross-checked against the Checked reference model under
     qcheck-generated operation sequences, plus an exact droptail vs
     plain-FIFO differential;
   - metamorphic properties: scaling packet sizes scales byte metrics
     linearly (queue level, and link level when capacity scales too);
     permuting flow ids permutes but preserves per-flow stats;
   - seed determinism: a miniature sweep over a Harness.Pool produces
     byte-identical outputs at jobs=1 and jobs=4. *)

module Check = Taq_check.Check
module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Link = Taq_net.Link
module Common = Taq_experiments.Common
module Harness = Taq_harness

let qcheck_rand = Qcheck_seed.rand ~file:"test_check"

(* --- Check.t unit tests ------------------------------------------------ *)

let test_off_is_inert () =
  let c = Check.off in
  Alcotest.(check bool) "off" false (Check.on c Check.Net);
  Check.require c Check.Net false (fun () -> "must not be evaluated");
  Check.violation c Check.Net "must not be recorded";
  Alcotest.(check int) "no checks" 0 (Check.total_checks c);
  Alcotest.(check int) "no violations" 0 (Check.total_violations c)

let test_count_mode () =
  let c = Check.create ~mode:Check.Count () in
  Check.require c Check.Tcp true (fun () -> "fine");
  Check.require c Check.Tcp false (fun () -> "broken thing");
  Check.require c Check.Net false (fun () -> "other thing");
  Alcotest.(check int) "tcp checks" 2 (Check.checks_run c Check.Tcp);
  Alcotest.(check int) "tcp violations" 1 (Check.violations c Check.Tcp);
  Alcotest.(check int) "net violations" 1 (Check.violations c Check.Net);
  Alcotest.(check int) "total" 2 (Check.total_violations c);
  Alcotest.(check int) "messages" 2 (List.length (Check.messages c));
  let msg = List.hd (Check.messages c) in
  Alcotest.(check bool) "tagged with group" true
    (String.length msg > 5 && String.sub msg 0 5 = "[tcp]")

let test_raise_mode () =
  let c = Check.create ~mode:Check.Raise () in
  Check.require c Check.Core true (fun () -> "fine");
  Alcotest.check_raises "raises" (Check.Violation "[core] boom") (fun () ->
      Check.require c Check.Core false (fun () -> "boom"));
  Alcotest.(check int) "violation still counted" 1
    (Check.violations c Check.Core)

let test_group_masking () =
  let c = Check.create ~mode:Check.Count ~groups:[ Check.Net ] () in
  Alcotest.(check bool) "net on" true (Check.on c Check.Net);
  Alcotest.(check bool) "tcp off" false (Check.on c Check.Tcp);
  Check.require c Check.Tcp false (fun () -> "masked out");
  Alcotest.(check int) "masked group records nothing" 0 (Check.total_checks c)

let test_groups_of_string () =
  (match Check.groups_of_string "all" with
  | Ok gs -> Alcotest.(check int) "all" 8 (List.length gs)
  | Error e -> Alcotest.fail e);
  (match Check.groups_of_string "fluid" with
  | Ok gs -> Alcotest.(check bool) "fluid" true (gs = [ Check.Fluid ])
  | Error e -> Alcotest.fail e);
  (match Check.groups_of_string "net, tcp" with
  | Ok gs ->
      Alcotest.(check bool) "net,tcp" true (gs = [ Check.Net; Check.Tcp ])
  | Error e -> Alcotest.fail e);
  match Check.groups_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

let test_merge_into () =
  let a = Check.create ~mode:Check.Count () in
  let b = Check.create ~mode:Check.Count () in
  Check.require a Check.Net false (fun () -> "a1");
  Check.require b Check.Net false (fun () -> "b1");
  Check.require b Check.Engine true (fun () -> "fine");
  Check.merge_into ~dst:a b;
  Alcotest.(check int) "violations merged" 2 (Check.violations a Check.Net);
  Alcotest.(check int) "checks merged" 3 (Check.total_checks a);
  Alcotest.(check int) "messages merged" 2 (List.length (Check.messages a))

let test_report_mentions_groups () =
  let c = Check.create ~mode:Check.Count () in
  Check.require c Check.Queueing false (fun () -> "drifted");
  let r = Check.report c in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions queueing" true (contains r "queueing");
  Alcotest.(check bool) "mentions message" true (contains r "drifted")

(* --- hook smoke tests --------------------------------------------------- *)

(* A short contended simulation under every discipline: the instrumented
   stack must run checks in every group and find nothing. *)
let smoke queue () =
  let check = Check.create ~mode:Check.Raise () in
  let env =
    Common.make_env ~check ~queue ~capacity_bps:400e3 ~buffer_pkts:25 ~seed:7 ()
  in
  let _ids = Common.spawn_long_flows env ~n:12 ~rtt:0.1 ~rtt_jitter:0.1 () in
  Common.run env ~until:20.0;
  Alcotest.(check int) "no violations" 0 (Check.total_violations check);
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "%s checks ran" (Check.group_name g))
        true
        (Check.checks_run check g > 0))
    [ Check.Engine; Check.Net; Check.Queueing; Check.Tcp ]

let smoke_taq () =
  let check = Check.create ~mode:Check.Raise () in
  let config = Common.taq_config ~admission:true ~capacity_bps:400e3 ~buffer_pkts:25 () in
  let env =
    Common.make_env ~check ~queue:(Common.Taq config) ~capacity_bps:400e3
      ~buffer_pkts:25 ~seed:7 ()
  in
  let _ids = Common.spawn_long_flows env ~n:12 ~rtt:0.1 ~rtt_jitter:0.1 () in
  Common.run env ~until:20.0;
  Alcotest.(check int) "no violations" 0 (Check.total_violations check);
  Alcotest.(check bool) "core checks ran" true
    (Check.checks_run check Check.Core > 0)

(* The shadow model must catch a discipline that lies about its state:
   this one loses every third packet without reporting a drop. *)
let test_checked_catches_lying_disc () =
  let check = Check.create ~mode:Check.Count ~groups:[ Check.Queueing ] () in
  let q : Packet.t Queue.t = Queue.create () in
  let count = ref 0 in
  let lying =
    {
      Disc.name = "liar";
      enqueue =
        (fun p ->
          incr count;
          if !count mod 3 <> 0 then Queue.add p q;
          (* losing the packet silently: no drop reported *)
          []);
      dequeue = (fun () -> Queue.take_opt q);
      dequeue_drops = Disc.no_dequeue_drops;
      length = (fun () -> Queue.length q);
      bytes = (fun () -> Queue.fold (fun acc (p : Packet.t) -> acc + p.size) 0 q);
    }
  in
  let wrapped = Taq_queueing.Checked.wrap ~check lying in
  let alloc = Packet.alloc () in
  for i = 1 to 9 do
    ignore
      (wrapped.Disc.enqueue
         (Packet.make ~alloc ~flow:1 ~kind:Packet.Data ~seq:i ~size:500
            ~sent_at:0.0 ()))
  done;
  Alcotest.(check bool) "shadow model caught the liar" true
    (Check.violations check Check.Queueing > 0)

(* Checked.wrap must be the identity when the group is off. *)
let test_checked_zero_cost_when_off () =
  let inner = Taq_queueing.Droptail.create ~capacity_pkts:4 in
  let same = Taq_queueing.Checked.wrap ~check:Check.off inner in
  Alcotest.(check bool) "physically identical" true (same == inner)

(* --- differential battery ---------------------------------------------- *)

type op = Enq of int * int (* flow, size *) | Deq

let op_gen =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (3, map2 (fun f s -> Enq (f, s)) (int_range 0 9) (int_range 40 1500));
           (2, return Deq);
         ]))

let op_print ops =
  String.concat ";"
    (List.map
       (function Enq (f, s) -> Printf.sprintf "E%d/%d" f s | Deq -> "D")
       ops)

let ops_arb = QCheck.make ~print:op_print op_gen

(* Drive [ops] through [disc] wrapped in the shadow model; afterwards
   drain it. Any accounting drift, phantom packet or missed drop is a
   counted violation. *)
let run_ops_checked ~mk_disc ops =
  let check = Check.create ~mode:Check.Count ~groups:[ Check.Queueing ] () in
  let disc = Taq_queueing.Checked.wrap ~check (mk_disc ()) in
  let alloc = Packet.alloc () in
  let seqs = Array.make 10 0 in
  List.iter
    (function
      | Enq (flow, size) ->
          seqs.(flow) <- seqs.(flow) + 1;
          ignore
            (disc.Disc.enqueue
               (Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:seqs.(flow)
                  ~size ~sent_at:0.0 ()))
      | Deq -> ignore (disc.Disc.dequeue ()))
    ops;
  let rec drain () = match disc.Disc.dequeue () with Some _ -> drain () | None -> () in
  drain ();
  if Check.violations check Check.Queueing > 0 then
    QCheck.Test.fail_reportf "violations:@.%s"
      (String.concat "\n" (Check.messages check))
  else true

let differential name mk_disc =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches reference model" name)
    ~count:60 ops_arb
    (run_ops_checked ~mk_disc)

let diff_droptail =
  differential "droptail" (fun () -> Taq_queueing.Droptail.create ~capacity_pkts:16)

let diff_red =
  differential "red" (fun () ->
      (* Fixed virtual clock: RED's averaging depends only on arrivals. *)
      Taq_queueing.Red.create ~capacity_pkts:16
        ~now:(fun () -> 0.0)
        ~prng:(Taq_util.Prng.create ~seed:42)
        ())

let diff_sfq =
  differential "sfq" (fun () -> Taq_queueing.Sfq.create ~capacity_pkts:16 ())

let diff_drr =
  differential "drr" (fun () -> Taq_queueing.Drr.create ~capacity_pkts:16 ())

let diff_taq =
  differential "taq" (fun () ->
      let sim = Sim.create ~check:Check.off () in
      let config = Taq_core.Taq_config.default ~capacity_pkts:16 ~capacity_bps:1e6 in
      Taq_core.Taq_disc.disc (Taq_core.Taq_disc.create ~check:Check.off ~sim ~config ()))

(* Exact differential: droptail vs a trivially-correct bounded FIFO.
   The dequeue sequences must agree uid for uid. *)
let prop_droptail_equals_fifo =
  QCheck.Test.make ~name:"droptail = bounded FIFO (exact)" ~count:100 ops_arb
    (fun ops ->
      let disc = Taq_queueing.Droptail.create ~capacity_pkts:8 in
      let reference : Packet.t Queue.t = Queue.create () in
      let alloc = Packet.alloc () in
      let seqs = Array.make 10 0 in
      let check_pop (got : Packet.t option) (want : Packet.t option) =
        match (got, want) with
        | None, None -> ()
        | Some g, Some w ->
            if g.Packet.uid <> w.Packet.uid then
              QCheck.Test.fail_reportf "dequeue mismatch: uid %d <> %d"
                g.Packet.uid w.Packet.uid
        | Some g, None ->
            QCheck.Test.fail_reportf "phantom dequeue: uid %d" g.Packet.uid
        | None, Some w ->
            QCheck.Test.fail_reportf "missing dequeue: uid %d" w.Packet.uid
      in
      List.iter
        (function
          | Enq (flow, size) ->
              seqs.(flow) <- seqs.(flow) + 1;
              let p =
                Packet.make ~alloc ~flow ~kind:Packet.Data ~seq:seqs.(flow)
                  ~size ~sent_at:0.0 ()
              in
              let drops = disc.Disc.enqueue p in
              if Queue.length reference < 8 then Queue.add p reference
              else if drops = [] then
                QCheck.Test.fail_reportf "over-capacity accept: uid %d"
                  p.Packet.uid
          | Deq -> check_pop (disc.Disc.dequeue ()) (Queue.take_opt reference))
        ops;
      let rec drain () =
        let got = disc.Disc.dequeue () and want = Queue.take_opt reference in
        check_pop got want;
        if got <> None then drain ()
      in
      drain ();
      true)

(* --- metamorphic properties --------------------------------------------- *)

(* Scaling every packet size by k scales the byte metric at every step
   by exactly k (occupancy decisions are packet-count based for these
   disciplines, so the op traces stay aligned). *)
let prop_size_scaling_queue =
  QCheck.Test.make ~name:"byte metrics scale linearly with packet size"
    ~count:80
    QCheck.(pair (int_range 2 5) ops_arb)
    (fun (k, ops) ->
      let trace mk_size =
        let disc = Taq_queueing.Droptail.create ~capacity_pkts:12 in
        let alloc = Packet.alloc () in
        let seqs = Array.make 10 0 in
        List.map
          (function
            | Enq (flow, size) ->
                seqs.(flow) <- seqs.(flow) + 1;
                ignore
                  (disc.Disc.enqueue
                     (Packet.make ~alloc ~flow ~kind:Packet.Data
                        ~seq:seqs.(flow) ~size:(mk_size size) ~sent_at:0.0 ()));
                disc.Disc.bytes ()
            | Deq ->
                ignore (disc.Disc.dequeue ());
                disc.Disc.bytes ())
          ops
      in
      let base = trace (fun s -> s) and scaled = trace (fun s -> k * s) in
      List.for_all2 (fun b s -> s = k * b) base scaled)

(* Link level: scaling sizes and capacity together preserves all timing,
   so transmitted bytes scale exactly and busy time is unchanged. *)
let test_link_scaling () =
  let run ~k =
    let sim = Sim.create ~check:Check.off () in
    let disc = Taq_queueing.Droptail.create ~capacity_pkts:50 in
    let link =
      Link.create ~check:Check.off ~sim ~capacity_bps:(8000.0 *. float_of_int k)
        ~prop_delay:0.01 ~disc
        ~deliver:(fun _ -> ())
        ()
    in
    let alloc = Packet.alloc () in
    for i = 1 to 30 do
      Sim.schedule sim
        ~at:(float_of_int i *. 0.05)
        (fun () ->
          Link.send link
            (Packet.make ~alloc ~flow:(i mod 3) ~kind:Packet.Data ~seq:i
               ~size:(k * (100 + (37 * i mod 400)))
               ~sent_at:0.0 ()))
    done;
    Sim.run sim;
    Link.stats link
  in
  let s1 = run ~k:1 and s3 = run ~k:3 in
  Alcotest.(check int) "transmitted count equal" s1.Link.transmitted s3.Link.transmitted;
  Alcotest.(check int)
    "bytes scale by 3" (3 * s1.Link.bytes_transmitted) s3.Link.bytes_transmitted;
  Alcotest.(check (float 1e-9)) "busy time identical" s1.Link.busy_time s3.Link.busy_time

(* Permuting flow ids permutes per-flow stats and preserves aggregate
   fairness metrics. *)
let prop_flow_permutation =
  QCheck.Test.make ~name:"flow-id permutation preserves per-flow stats"
    ~count:80
    QCheck.(
      pair (int_range 1 1000000000)
        (list_of_size (Gen.int_range 1 150)
           (triple (int_range 0 7) (float_range 0.0 100.0) (int_range 1 1500))))
    (fun (pseed, events) ->
      let n = 8 in
      (* A random permutation of 0..7 from the seed. *)
      let perm = Array.init n (fun i -> i) in
      Taq_util.Prng.shuffle (Taq_util.Prng.create ~seed:pseed) perm;
      let build map =
        let s = Taq_metrics.Slicer.create ~slice:20.0 in
        List.iter
          (fun (flow, time, bytes) ->
            Taq_metrics.Slicer.record s ~flow:(map flow) ~time ~bytes)
          events;
        s
      in
      let base = build (fun f -> f) and permuted = build (fun f -> perm.(f)) in
      let ids = Array.init n (fun i -> i) in
      (* Per-flow totals follow the permutation... *)
      let totals_match =
        Array.for_all
          (fun f ->
            Taq_metrics.Slicer.flow_total base ~flow:f
            = Taq_metrics.Slicer.flow_total permuted ~flow:perm.(f))
          ids
      in
      (* ...and the aggregate fairness index is unchanged. *)
      let j1 = Taq_metrics.Slicer.long_term_jain base ~flows:ids in
      let j2 = Taq_metrics.Slicer.long_term_jain permuted ~flows:ids in
      totals_match && Float.abs (j1 -. j2) < 1e-9)

(* --- seed determinism across the Pool ----------------------------------- *)

(* A miniature sweep: results must be byte-identical whether computed
   sequentially or on 4 worker domains. This is the guard against
   scheduling-dependent nondeterminism (hidden shared state, ambient
   PRNGs, domain-local sinks). *)
let mini_sweep_tasks ?(checked = false) () =
  List.map
    (fun (queue, name, fair_share) ->
      let key = Printf.sprintf "mini/%s/fs=%.0f" name fair_share in
      Harness.Task.make ~key (fun ~seed ->
          Harness.Capture.text (fun () ->
              let capacity = 200e3 in
              let flows =
                Common.flows_for_fair_share ~capacity_bps:capacity
                  ~fair_share_bps:fair_share
              in
              let env =
                Common.make_env
                  ~check:(if checked then Check.create () else Check.off)
                  ~queue ~capacity_bps:capacity ~buffer_pkts:20 ~seed ()
              in
              let ids =
                Common.spawn_long_flows env ~n:flows ~rtt:0.1 ~rtt_jitter:0.1 ()
              in
              Common.run env ~until:12.0;
              Taq_util.Out.printf "%s jain=%.6f util=%.6f loss=%.6f\n" key
                (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids)
                (Common.utilization env)
                (Common.measured_loss_rate env))))
    [
      (Common.Droptail, "droptail", 10e3);
      (Common.Sfq, "sfq", 10e3);
      (Common.Droptail, "droptail", 20e3);
      (Common.Taq (Common.taq_config ~capacity_bps:200e3 ~buffer_pkts:20 ()),
       "taq", 10e3);
    ]

let outputs ?checked ~jobs () =
  Harness.Pool.run ~jobs (mini_sweep_tasks ?checked ())
  |> List.map (fun (r : string Harness.Pool.result) ->
         match r.Harness.Pool.value with
         | Ok s -> (r.Harness.Pool.key, s)
         | Error e -> Alcotest.fail (r.Harness.Pool.key ^ ": " ^ e))

let test_seed_determinism_jobs () =
  let seq = outputs ~jobs:1 () and par = outputs ~jobs:4 () in
  Alcotest.(check (list (pair string string)))
    "jobs=4 byte-identical to jobs=1" seq par

let test_seed_determinism_rerun () =
  Alcotest.(check (list (pair string string)))
    "jobs=4 stable across runs" (outputs ~jobs:4 ()) (outputs ~jobs:4 ())

(* Instrumentation must not change behaviour: the same mini sweep with
   every check group enabled produces the same metrics. *)
let test_checks_do_not_perturb () =
  let plain = outputs ~jobs:1 () in
  let checked = outputs ~checked:true ~jobs:4 () in
  Alcotest.(check (list (pair string string)))
    "checked run byte-identical to unchecked" plain checked

let () =
  Alcotest.run "taq_check"
    [
      ( "check",
        [
          Alcotest.test_case "off is inert" `Quick test_off_is_inert;
          Alcotest.test_case "count mode" `Quick test_count_mode;
          Alcotest.test_case "raise mode" `Quick test_raise_mode;
          Alcotest.test_case "group masking" `Quick test_group_masking;
          Alcotest.test_case "groups_of_string" `Quick test_groups_of_string;
          Alcotest.test_case "merge_into" `Quick test_merge_into;
          Alcotest.test_case "report" `Quick test_report_mentions_groups;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "droptail sim clean" `Quick (smoke Common.Droptail);
          Alcotest.test_case "red sim clean" `Quick (smoke Common.Red);
          Alcotest.test_case "sfq sim clean" `Quick (smoke Common.Sfq);
          Alcotest.test_case "drr sim clean" `Quick (smoke Common.Drr);
          Alcotest.test_case "taq sim clean" `Quick smoke_taq;
          Alcotest.test_case "shadow model catches liar" `Quick
            test_checked_catches_lying_disc;
          Alcotest.test_case "wrap is identity when off" `Quick
            test_checked_zero_cost_when_off;
          Alcotest.test_case "link scaling metamorphic" `Quick test_link_scaling;
        ] );
      ( "differential",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:qcheck_rand)
          [
            diff_droptail;
            diff_red;
            diff_sfq;
            diff_drr;
            diff_taq;
            prop_droptail_equals_fifo;
            prop_size_scaling_queue;
            prop_flow_permutation;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4" `Slow test_seed_determinism_jobs;
          Alcotest.test_case "jobs=4 rerun stable" `Slow
            test_seed_determinism_rerun;
          Alcotest.test_case "checks do not perturb metrics" `Slow
            test_checks_do_not_perturb;
        ] );
    ]

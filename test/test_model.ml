(* Tests for the Markov machinery and the paper's idealized models:
   solver agreement, analytic sanity of the transition structure,
   the closed-form idle time (eq 8), limiting behaviour at p -> 0,
   monotonicity of the timeout mass, the tipping point near p = 0.1,
   and agreement between the partial and full models. *)

open Taq_model

let check_close msg ~tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance
      actual

(* --- Markov ------------------------------------------------------------- *)

let two_state a b =
  (* 0 -> 1 w.p. a; 1 -> 0 w.p. b. Stationary: (b, a)/(a+b). *)
  Markov.create ~labels:[| "x"; "y" |]
    ~matrix:[| [| 1.0 -. a; a |]; [| b; 1.0 -. b |] |]

let test_markov_two_state_exact () =
  let m = two_state 0.3 0.1 in
  let d = Markov.stationary_exact m in
  check_close "pi_x" ~tolerance:1e-12 0.25 d.(0);
  check_close "pi_y" ~tolerance:1e-12 0.75 d.(1)

let test_markov_power_matches_exact () =
  let m = two_state 0.42 0.17 in
  let e = Markov.stationary_exact m and p = Markov.stationary_power m in
  Array.iteri (fun i x -> check_close "solver agreement" ~tolerance:1e-8 x p.(i)) e

let test_markov_rejects_bad_rows () =
  match
    Markov.create ~labels:[| "a"; "b" |]
      ~matrix:[| [| 0.5; 0.4 |]; [| 0.0; 1.0 |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "row not summing to 1 must be rejected"

let test_markov_rejects_negative () =
  match
    Markov.create ~labels:[| "a"; "b" |]
      ~matrix:[| [| 1.2; -0.2 |]; [| 0.0; 1.0 |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative entry must be rejected"

let test_markov_step_conserves_mass () =
  let m = two_state 0.3 0.6 in
  let d = Markov.step m [| 0.2; 0.8 |] in
  check_close "mass conserved" ~tolerance:1e-12 1.0 (d.(0) +. d.(1))

let test_markov_index () =
  let m = two_state 0.1 0.1 in
  Alcotest.(check int) "index y" 1 (Markov.index m "y");
  match Markov.index m "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown label must raise"

(* --- Partial model ------------------------------------------------------- *)

let test_partial_rows_stochastic () =
  (* Markov.create would reject non-stochastic rows; surviving
     construction over the whole p range is the assertion. *)
  List.iter
    (fun p -> ignore (Partial_model.create ~p ()))
    [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.3; 0.45; 0.499 ]

let test_partial_p_domain () =
  (match Partial_model.create ~p:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p = 0.5 must be rejected");
  match Partial_model.create ~p:(-0.1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative p must be rejected"

let test_partial_no_loss_lives_at_wmax () =
  (* With p = 0 every transmission succeeds: all mass ends at SWmax. *)
  let m = Partial_model.create ~p:0.0 () in
  let sent = Partial_model.sent_distribution m in
  check_close "all mass at wmax" ~tolerance:1e-9 1.0 sent.(6);
  check_close "no timeouts" ~tolerance:1e-12 0.0 (Partial_model.timeout_mass m)

let test_partial_transition_probabilities () =
  (* Spot-check equation (1) and (2) entries of the generated chain. *)
  let p = 0.1 in
  let m = Partial_model.create ~p () in
  let c = Partial_model.chain m in
  let i = Markov.index c in
  check_close "S2->S3 = (1-p)^2" ~tolerance:1e-12 (0.9 ** 2.0)
    (Markov.probability c (i "S2") (i "S3"));
  check_close "S4->S2 fast retx = 4p(1-p)^3(1-p)" ~tolerance:1e-12
    (4.0 *. 0.1 *. (0.9 ** 3.0) *. 0.9)
    (Markov.probability c (i "S4") (i "S2"));
  (* S2 and S3 have no fast retransmission path (cwnd < 4). *)
  check_close "S3->S1 absent" ~tolerance:1e-12 0.0
    (Markov.probability c (i "S3") (i "S1"));
  (* b* self-loop = 2p (eq 10). *)
  check_close "b* self loop" ~tolerance:1e-12 0.2
    (Markov.probability c (i "b*") (i "b*"));
  (* Simple timeouts from S4 go through the empty-buffer epoch b0. *)
  let s4_rto =
    1.0 -. (0.9 ** 4.0) -. (4.0 *. 0.1 *. (0.9 ** 3.0) *. 0.9)
  in
  check_close "S4->b0 residual" ~tolerance:1e-12 s4_rto
    (Markov.probability c (i "S4") (i "b0"));
  (* Small-window timeouts go straight to b*. *)
  check_close "S2->b* residual" ~tolerance:1e-12
    (1.0 -. (0.9 ** 2.0))
    (Markov.probability c (i "S2") (i "b*"))

let test_partial_sent_distribution_sums_to_one () =
  List.iter
    (fun p ->
      let m = Partial_model.create ~p () in
      let s = Array.fold_left ( +. ) 0.0 (Partial_model.sent_distribution m) in
      check_close (Printf.sprintf "sums to 1 at p=%g" p) ~tolerance:1e-9 1.0 s)
    [ 0.0; 0.05; 0.15; 0.3; 0.45 ]

let test_partial_timeout_mass_monotone () =
  let masses =
    List.map
      (fun p -> Partial_model.timeout_mass (Partial_model.create ~p ()))
      [ 0.02; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ]
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a > b +. 1e-9 then Alcotest.failf "not monotone: %g then %g" a b;
        check rest
    | _ -> ()
  in
  check masses

let test_partial_high_loss_dominated_by_timeouts () =
  let m = Partial_model.create ~p:0.3 () in
  Alcotest.(check bool) "timeout mass majority at p=0.3" true
    (Partial_model.timeout_mass m > 0.5)

let test_partial_wmax_extension () =
  (* The model "may be extended to higher states by increasing Wmax". *)
  let m = Partial_model.create ~wmax:10 ~p:0.1 () in
  Alcotest.(check int) "state count" 12 (Array.length (Partial_model.stationary m));
  let s = Array.fold_left ( +. ) 0.0 (Partial_model.stationary m) in
  check_close "stationary sums to 1" ~tolerance:1e-9 1.0 s

let test_expected_idle_epochs () =
  (* Equation (8): 1/(1-2p); check against the series
     sum_k (2^k - 1) p^(k-1) (1-p). *)
  List.iter
    (fun p ->
      let series = ref 0.0 in
      for k = 1 to 200 do
        series :=
          !series
          +. ((2.0 ** float_of_int k) -. 1.0)
             *. (p ** float_of_int (k - 1))
             *. (1.0 -. p)
      done;
      check_close
        (Printf.sprintf "series matches closed form at p=%g" p)
        ~tolerance:1e-6 !series
        (Partial_model.expected_idle_epochs ~p))
    [ 0.0; 0.1; 0.2; 0.3; 0.4 ]

let test_partial_solvers_agree () =
  List.iter
    (fun p ->
      let m = Partial_model.create ~p () in
      let e = Markov.stationary_exact (Partial_model.chain m) in
      let pw = Markov.stationary_power (Partial_model.chain m) in
      Array.iteri
        (fun i x ->
          check_close (Printf.sprintf "state %d at p=%g" i p) ~tolerance:1e-7 x
            pw.(i))
        e)
    [ 0.01; 0.1; 0.3 ]

(* --- Full model ----------------------------------------------------------- *)

let test_full_builds_over_domain () =
  List.iter
    (fun p -> ignore (Full_model.create ~p ()))
    [ 0.0; 0.05; 0.1; 0.3; 0.499 ]

let test_full_stationary_sums_to_one () =
  let m = Full_model.create ~p:0.2 () in
  let s = Array.fold_left ( +. ) 0.0 (Full_model.stationary m) in
  check_close "sums to 1" ~tolerance:1e-9 1.0 s

let test_full_stage3_wait_at_p0 () =
  (* At p = 0 the aggregated >= 3-backoffs stage waits 2^3 - 1 = 7. *)
  let m = Full_model.create ~p:0.0 () in
  let c = Full_model.chain m in
  let i = Markov.index c in
  check_close "b3 self-loop 1 - 1/7" ~tolerance:1e-9 (1.0 -. (1.0 /. 7.0))
    (Markov.probability c (i "b3+") (i "b3+"))

let test_full_backoff_stages_ordered () =
  (* Deeper backoff stages are rarer than shallow ones: reaching stage
     k+1 requires one more failed retransmission. *)
  let m = Full_model.create ~p:0.15 () in
  let stages = Full_model.backoff_stage_mass m in
  Alcotest.(check bool) "stage1 > stage2" true (stages.(0) > stages.(1));
  (* Stage 3+ aggregates an infinite tail with long waits, so it is
     compared against stage 2 only loosely: it must be smaller than
     stage 1. *)
  Alcotest.(check bool) "stage1 > stage3" true (stages.(0) > stages.(2))

let test_full_agrees_with_partial () =
  (* Both models should tell the same macro story: similar timeout
     mass across the paper's plotted range. *)
  List.iter
    (fun p ->
      let fm = Full_model.create ~p () in
      let pm = Partial_model.create ~p () in
      let a = Full_model.timeout_mass fm and b = Partial_model.timeout_mass pm in
      if Float.abs (a -. b) > 0.08 then
        Alcotest.failf "models diverge at p=%g: full=%.3f partial=%.3f" p a b)
    [ 0.01; 0.05; 0.1; 0.2; 0.3 ]

let test_full_no_loss_no_timeouts () =
  let m = Full_model.create ~p:0.0 () in
  check_close "no timeout mass" ~tolerance:1e-12 0.0 (Full_model.timeout_mass m)

(* --- Analysis -------------------------------------------------------------- *)

let test_sweep_shape () =
  let points = Analysis.sweep ~p_lo:0.05 ~p_hi:0.3 ~steps:6 () in
  Alcotest.(check int) "6 points" 6 (List.length points);
  let first = List.hd points in
  check_close "first p" ~tolerance:1e-12 0.05 first.Analysis.p;
  let last = List.nth points 5 in
  check_close "last p" ~tolerance:1e-12 0.3 last.Analysis.p

let test_goodput_decreases_with_p () =
  let g p =
    (List.hd (Analysis.sweep ~p_lo:p ~p_hi:p ~steps:2 ())).Analysis
    .goodput_pkts_per_epoch
  in
  Alcotest.(check bool) "goodput falls" true (g 0.02 > g 0.2)

let test_tipping_point_near_ten_percent () =
  (* Section 3.2: "when the loss rate jumps beyond 10%, the probability
     of timeouts ... rapidly increases". The majority-timeout threshold
     should fall in that neighbourhood. *)
  let tp = Analysis.tipping_point () in
  Alcotest.(check bool)
    (Printf.sprintf "tipping point %.3f in [0.05, 0.2]" tp)
    true
    (tp >= 0.05 && tp <= 0.2)

let test_steepest_increase_in_range () =
  let p = Analysis.steepest_increase () in
  Alcotest.(check bool)
    (Printf.sprintf "knee %.3f below 0.25" p)
    true (p > 0.0 && p < 0.25)



(* --- Hitting times / transient analysis ------------------------------------ *)

let test_hitting_times_two_state () =
  (* 0 -> 1 w.p. a: expected steps to reach 1 is 1/a (geometric). *)
  let m = two_state 0.25 0.5 in
  let h = Markov.hitting_times m ~targets:[ 1 ] in
  check_close "geometric mean" ~tolerance:1e-9 4.0 h.(0);
  check_close "target itself" ~tolerance:1e-12 0.0 h.(1)

let test_hitting_times_empty_targets () =
  let m = two_state 0.3 0.3 in
  match Markov.hitting_times m ~targets:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty targets must raise"

(* State 0 is absorbing, so no step from it ever reaches the target. *)
let test_hitting_times_unreachable () =
  let m =
    Markov.create ~labels:[| "stuck"; "a"; "goal" |]
      ~matrix:[| [| 1.0; 0.0; 0.0 |]; [| 0.0; 0.5; 0.5 |]; [| 0.0; 0.0; 1.0 |] |]
  in
  Alcotest.check_raises "singular system"
    (Invalid_argument "Markov.hitting_times: target unreachable from some state")
    (fun () -> ignore (Markov.hitting_times m ~targets:[ 2 ]))

let test_epochs_to_timeout_decreasing_in_p () =
  (* Higher loss means a flow survives fewer epochs before its first
     timeout. *)
  let e p = Analysis.epochs_to_first_timeout ~p ~from_window:6 () in
  Alcotest.(check bool) "monotone decreasing" true
    (e 0.05 > e 0.1 && e 0.1 > e 0.2 && e 0.2 > e 0.3)

let test_epochs_to_timeout_window_ordering () =
  (* At moderate p a larger window survives fewer epochs than a small
     one at the same per-packet loss rate (more packets at risk per
     epoch, and the S2/S3 states cannot fast-retransmit but also send
     fewer packets). Just check both are finite and positive, and the
     known direction at high p. *)
  let p = 0.25 in
  let e6 = Analysis.epochs_to_first_timeout ~p ~from_window:6 () in
  let e2 = Analysis.epochs_to_first_timeout ~p ~from_window:2 () in
  Alcotest.(check bool) "positive" true (e6 > 0.0 && e2 > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "w6 (%.2f) times out sooner than w2 (%.2f) at p=0.25" e6 e2)
    true (e6 <= e2)

let test_epochs_to_timeout_domain () =
  (match Analysis.epochs_to_first_timeout ~p:0.0 ~from_window:4 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p = 0 must raise");
  match Analysis.epochs_to_first_timeout ~p:0.1 ~from_window:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "from_window below 2 must raise"

(* --- Padhye --------------------------------------------------------------- *)

(* Segments per second. *)
let padhye ?wmax ~rtt ~t0 ~p () =
  Padhye.throughput_pkts_per_rtt ?wmax ~rtt ~t0 ~p () /. rtt

let test_padhye_decreasing_in_p () =
  let b p = padhye ~rtt:0.2 ~t0:0.4 ~p () in
  Alcotest.(check bool) "monotone" true (b 0.01 > b 0.05 && b 0.05 > b 0.2)

let test_padhye_sqrt_law_at_low_p () =
  (* With negligible timeouts, Padhye reduces to ~ 1/(RTT*sqrt(2p/3)),
     within a small factor of the Mathis rate. *)
  let p = 1e-4 and rtt = 0.1 in
  let padhye = padhye ~rtt ~t0:0.2 ~p () in
  let mathis = sqrt 1.5 /. (rtt *. sqrt p) in
  let ratio = padhye /. mathis in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [0.5, 1.5]" ratio)
    true
    (ratio > 0.5 && ratio < 1.5)

let test_padhye_wmax_caps () =
  check_close "window-limited" ~tolerance:1e-9 (6.0 /. 0.2)
    (padhye ~wmax:6.0 ~rtt:0.2 ~t0:0.4 ~p:1e-6 ())

let test_padhye_domain () =
  match padhye ~rtt:0.2 ~t0:0.4 ~p:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p = 0 must be rejected"

let test_padhye_vs_markov_divergence () =
  (* Section 6: the two models roughly agree where Padhye is "a much
     better fit" (moderate p) and diverge at high p, where the Markov
     model resolves the timeout dynamics Padhye aggregates. Compare
     goodput in pkts/RTT with T0 = 2 epochs. *)
  let compare p =
    let markov =
      let m = Partial_model.create ~p () in
      Analysis.goodput_pkts_per_epoch ~sent:(Partial_model.sent_distribution m)
        ~p
    in
    let padhye =
      Padhye.throughput_pkts_per_rtt ~wmax:6.0 ~rtt:1.0 ~t0:2.0 ~p ()
    in
    Float.abs (markov -. padhye) /. padhye
  in
  let low = compare 0.05 and high = compare 0.3 in
  Alcotest.(check bool)
    (Printf.sprintf "relative gap grows: %.2f at p=0.05, %.2f at p=0.3" low high)
    true
    (low < high);
  Alcotest.(check bool) "rough agreement at moderate p" true (low < 0.5)

(* --- Properties ------------------------------------------------------------ *)

let prop_stationary_is_fixed_point =
  QCheck.Test.make ~name:"stationary distribution is a fixed point" ~count:50
    QCheck.(float_range 0.0 0.49)
    (fun p ->
      let m = Partial_model.create ~p () in
      let d = Partial_model.stationary m in
      let d' = Markov.step (Partial_model.chain m) d in
      let err = ref 0.0 in
      Array.iteri (fun i x -> err := !err +. Float.abs (x -. d'.(i))) d;
      !err < 1e-8)

let prop_full_model_valid_distribution =
  QCheck.Test.make ~name:"full model stationary is a distribution" ~count:50
    QCheck.(float_range 0.0 0.49)
    (fun p ->
      let m = Full_model.create ~p () in
      let d = Full_model.stationary m in
      let sum = Array.fold_left ( +. ) 0.0 d in
      Array.for_all (fun x -> x >= -1e-12 && x <= 1.0 +. 1e-9) d
      && Float.abs (sum -. 1.0) < 1e-9)

let () =
  Alcotest.run "taq_model"
    [
      ( "markov",
        [
          Alcotest.test_case "two state exact" `Quick test_markov_two_state_exact;
          Alcotest.test_case "power vs exact" `Quick test_markov_power_matches_exact;
          Alcotest.test_case "bad rows" `Quick test_markov_rejects_bad_rows;
          Alcotest.test_case "negative" `Quick test_markov_rejects_negative;
          Alcotest.test_case "mass conserved" `Quick test_markov_step_conserves_mass;
          Alcotest.test_case "index" `Quick test_markov_index;
        ] );
      ( "partial",
        [
          Alcotest.test_case "stochastic rows" `Quick test_partial_rows_stochastic;
          Alcotest.test_case "p domain" `Quick test_partial_p_domain;
          Alcotest.test_case "p=0 lives at wmax" `Quick test_partial_no_loss_lives_at_wmax;
          Alcotest.test_case "transition spot checks" `Quick
            test_partial_transition_probabilities;
          Alcotest.test_case "sent sums to 1" `Quick
            test_partial_sent_distribution_sums_to_one;
          Alcotest.test_case "timeout mass monotone" `Quick
            test_partial_timeout_mass_monotone;
          Alcotest.test_case "high loss timeouts" `Quick
            test_partial_high_loss_dominated_by_timeouts;
          Alcotest.test_case "wmax extension" `Quick test_partial_wmax_extension;
          Alcotest.test_case "idle epochs closed form" `Quick test_expected_idle_epochs;
          Alcotest.test_case "solvers agree" `Quick test_partial_solvers_agree;
        ] );
      ( "full",
        [
          Alcotest.test_case "domain" `Quick test_full_builds_over_domain;
          Alcotest.test_case "sums to 1" `Quick test_full_stationary_sums_to_one;
          Alcotest.test_case "stage3 wait" `Quick test_full_stage3_wait_at_p0;
          Alcotest.test_case "stages ordered" `Quick test_full_backoff_stages_ordered;
          Alcotest.test_case "agrees with partial" `Quick test_full_agrees_with_partial;
          Alcotest.test_case "p=0" `Quick test_full_no_loss_no_timeouts;
        ] );
      ( "transient",
        [
          Alcotest.test_case "two state" `Quick test_hitting_times_two_state;
          Alcotest.test_case "empty targets" `Quick test_hitting_times_empty_targets;
          Alcotest.test_case "unreachable target" `Quick
            test_hitting_times_unreachable;
          Alcotest.test_case "decreasing in p" `Quick
            test_epochs_to_timeout_decreasing_in_p;
          Alcotest.test_case "window ordering" `Quick
            test_epochs_to_timeout_window_ordering;
          Alcotest.test_case "domain" `Quick test_epochs_to_timeout_domain;
        ] );
      ( "padhye",
        [
          Alcotest.test_case "decreasing" `Quick test_padhye_decreasing_in_p;
          Alcotest.test_case "sqrt law" `Quick test_padhye_sqrt_law_at_low_p;
          Alcotest.test_case "wmax cap" `Quick test_padhye_wmax_caps;
          Alcotest.test_case "domain" `Quick test_padhye_domain;
          Alcotest.test_case "vs markov divergence" `Quick
            test_padhye_vs_markov_divergence;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
          Alcotest.test_case "goodput falls" `Quick test_goodput_decreases_with_p;
          Alcotest.test_case "tipping point" `Quick test_tipping_point_near_ten_percent;
          Alcotest.test_case "steepest increase" `Quick test_steepest_increase_in_range;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_model"))
          [ prop_stationary_is_fixed_point; prop_full_model_valid_distribution ] );
    ]

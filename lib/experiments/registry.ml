module Out = Taq_util.Out

type target = {
  name : string;
  description : string;
  run : full:bool -> unit;
}

let fig1 ~full =
  let p = if full then Fig1_scatter.default else Fig1_scatter.quick in
  Fig1_scatter.print (Fig1_scatter.run p)

let fig2 ~full =
  let p = if full then Fig_fairness.default else Fig_fairness.quick in
  Fig_fairness.print (Fig_fairness.run p)

let fig3_body p =
  let rows = Fig3_buffer.run p in
  Fig3_buffer.print rows;
  Out.newline ();
  List.iter
    (fun target ->
      List.iter
        (fun (share, buf) ->
          Out.printf "fair share %.2f pkt/RTT: %s\n" share
            (match buf with
            | Some b ->
                Printf.sprintf "JFI>=%.2f reached with %.1f RTTs of buffer"
                  target b
            | None ->
                Printf.sprintf "JFI>=%.2f not reached within the sweep" target))
        (Fig3_buffer.required_buffer rows ~target_jain:target))
    [ 0.6; 0.7; 0.8 ]

let fig3 ~full = fig3_body (if full then Fig3_buffer.default else Fig3_buffer.quick)

let codel_fig3 ~full =
  let base = if full then Fig3_buffer.default else Fig3_buffer.quick in
  fig3_body { base with Fig3_buffer.queue = Common.Codel }

let hangs ~full =
  let p = if full then Hangs_experiment.default else Hangs_experiment.quick in
  Hangs_experiment.print (Hangs_experiment.run p)

let fig6 ~full =
  let p = if full then Fig6_validation.default else Fig6_validation.quick in
  Fig6_validation.print (Fig6_validation.run p)

let fig8 ~full =
  let base = if full then Fig_fairness.default else Fig_fairness.quick in
  let p = { base with Fig_fairness.queues = [ Common.taq_marker ] } in
  Fig_fairness.print (Fig_fairness.run p)

let fig9 ~full =
  let p = if full then Fig9_evolution.default else Fig9_evolution.quick in
  Fig9_evolution.print (Fig9_evolution.run p)

let fig10 ~full =
  let p = if full then Fig10_short_flows.default else Fig10_short_flows.quick in
  Fig10_short_flows.print (Fig10_short_flows.run p)

let fig11 ~full =
  let base = Fig_fairness.testbed in
  let p =
    if full then base
    else
      {
        base with
        Fig_fairness.fair_shares_bps = [ 4e3; 10e3; 20e3; 40e3 ];
        duration = 200.0;
      }
  in
  Fig_fairness.print (Fig_fairness.run p)

let fig12 ~full =
  let p = if full then Fig12_admission.default else Fig12_admission.quick in
  Fig12_admission.print (Fig12_admission.run p)

(* Section 2.4: existing AQM schemes (RED, SFQ) behave like droptail
   in small packet regimes — with at most a packet or two per flow in
   the buffer, they have no scheduling choices to exercise. *)
let aqm ~full =
  let base = if full then Fig_fairness.default else Fig_fairness.quick in
  let p =
    {
      base with
      Fig_fairness.queues = [ Common.Droptail; Common.Red; Common.Sfq; Common.Drr ];
      capacities_bps = (if full then [ 200e3; 600e3; 1000e3 ] else [ 600e3 ]);
      fair_shares_bps = [ 4e3; 10e3; 20e3 ];
    }
  in
  Fig_fairness.print (Fig_fairness.run p)

let http_modes ~full =
  let p = if full then Http_modes.default else Http_modes.quick in
  Http_modes.print (Http_modes.run p)

(* The paper defines SPK(k) up to k = 10 because modern stacks (CUBIC,
   initial window 10) dump a 10-segment burst at flow start — at fair
   shares below 10 packets/RTT the congestion effect hits at
   initiation. This target reruns the fairness sweep with that stack
   under droptail and TAQ. *)
let cubic ~full =
  let base = if full then Fig_fairness.default else Fig_fairness.quick in
  let p =
    {
      base with
      Fig_fairness.queues = [ Common.Droptail; Common.taq_marker ];
      capacities_bps = (if full then base.Fig_fairness.capacities_bps else [ 600e3 ]);
      tcp = { Taq_tcp.Tcp_config.cubic with Taq_tcp.Tcp_config.use_syn = false };
    }
  in
  Fig_fairness.print (Fig_fairness.run p)

(* The overload-guard drill as a registry target: the adversarial
   flood scenarios from the fault registry against a guarded TAQ
   (admission on, tracker capped), asserting the full degradation arc —
   trip, bounded state, recovery, re-learning. Deterministic under the
   drill's fixed seed, so test_counters pins its counters exactly. *)
let flood ~full =
  let scenarios =
    if full then [ "syn-flood-churn"; "one-packet-stampede"; "pool-churn-storm" ]
    else [ "syn-flood-churn"; "one-packet-stampede" ]
  in
  let outcomes =
    List.map
      (fun name ->
        match Taq_fault.Scenarios.find name with
        | None -> invalid_arg ("registry: unknown flood scenario " ^ name)
        | Some sc ->
            Fault_drill.run ~scenario:sc.Taq_fault.Scenarios.name
              ~plan:sc.Taq_fault.Scenarios.plan ~queue:Common.taq_marker ())
      scenarios
  in
  Fault_drill.print outcomes;
  let bad = List.filter (fun o -> not o.Fault_drill.ok) outcomes in
  if bad <> [] then
    failwith
      (Printf.sprintf "flood drill failed: %s"
         (String.concat "; "
            (List.concat_map (fun o -> o.Fault_drill.problems) bad)))

let ablate ~full =
  let p = if full then Ablations.default else Ablations.quick in
  Ablations.print (Ablations.run_queue_ablations p);
  Out.printf "\n-- admission threshold sweep (pthresh) --\n\n";
  Ablations.print_pthresh (Ablations.run_pthresh_sweep p)

let targets =
  [
    {
      name = "fig1";
      description = "download times vs object size (droptail trace replay)";
      run = fig1;
    };
    {
      name = "fig2";
      description = "long/short-term Jain fairness vs fair share (droptail)";
      run = fig2;
    };
    {
      name = "fig3";
      description = "droptail buffer needed to restore fairness";
      run = fig3;
    };
    {
      name = "codel-fig3";
      description = "fig3's buffer-vs-fairness sweep rerun under CoDel";
      run = codel_fig3;
    };
    {
      name = "hangs";
      description = "sec 2.3: user-perceived hangs (connection pools)";
      run = hangs;
    };
    {
      name = "fig6";
      description = "Markov model vs simulation (sent-class occupancy)";
      run = fig6;
    };
    {
      name = "fig8";
      description = "short-term Jain fairness vs fair share (TAQ)";
      run = fig8;
    };
    {
      name = "fig9";
      description = "flow evolution, droptail vs TAQ";
      run = fig9;
    };
    {
      name = "fig10";
      description = "short-flow download times under TAQ";
      run = fig10;
    };
    {
      name = "fig11";
      description = "testbed-profile fairness, droptail vs TAQ";
      run = fig11;
    };
    {
      name = "fig12";
      description = "download-time CDFs with admission control";
      run = fig12;
    };
    {
      name = "cubic";
      description = "the SPK(k<10) regime with a CUBIC / initcwnd-10 stack";
      run = cubic;
    };
    {
      name = "http";
      description =
        "HTTP/1.0 per-object connections vs persistent pipelining (sec 3.3/4.3)";
      run = http_modes;
    };
    {
      name = "aqm";
      description = "sec 2.4: RED, SFQ and DRR vs droptail in small packet regimes";
      run = aqm;
    };
    {
      name = "flood";
      description =
        "overload guard under adversarial floods: degrade to droptail, \
         bound tracker state, recover and re-learn";
      run = flood;
    };
    {
      name = "ablate";
      description = "ablations: recovery cap, overpenalized queue, epochs, pthresh";
      run = ablate;
    };
  ]

let find name = List.find_opt (fun t -> t.name = name) targets

let names = List.map (fun t -> t.name) targets

let capture t ~full = fst (Taq_util.Out.with_buffer (fun () -> t.run ~full))

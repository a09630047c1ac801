(* Golden-output regression tests for the experiment machinery.

   Each scenario is a small, fully deterministic simulation (fixed
   seed, single domain) through the same [Common.make_env] plumbing
   the figure experiments use. Its key scalar outputs — long-term
   Jain fairness index, bottleneck utilization, measured loss rate and
   the exact drop count — print as one row, and the row must equal its
   line in test/goldens/scalars.expected exactly. A legitimate
   behaviour change (new congestion-control detail, queue tweak, ...)
   must regenerate the file (Golden_file has the command), which makes
   dynamics drift an explicit, reviewed event instead of a silent one. *)

module Common = Taq_experiments.Common
module Slicer = Taq_metrics.Slicer
module Loss_monitor = Taq_metrics.Loss_monitor

let capacity_bps = 400e3
let buffer_pkts = 25
let n_flows = 12
let seed = 11
let horizon = 30.0

let measure ?faults queue =
  let env =
    Common.make_env ?faults ~queue ~capacity_bps ~buffer_pkts ~slice:1.0 ~seed
      ()
  in
  let flows = Common.spawn_long_flows env ~n:n_flows ~rtt:0.1 () in
  Common.run env ~until:horizon;
  let jain = Slicer.long_term_jain env.Common.slicer ~flows in
  let util = Common.utilization env in
  let loss = Common.measured_loss_rate env in
  let drops = Loss_monitor.drops env.Common.loss in
  (jain, util, loss, drops)

let taq ?admission ?guard_cap () =
  Common.Taq (Common.taq_config ?admission ?guard_cap ())

(* --- the golden tables --------------------------------------------------

   One table of scenarios per workload variant. Each prints its own
   comment line and pads names to its own width, as the committed file
   does. *)

type table = {
  title : string;
  width : int;
  faults : Taq_fault.Plan.t option;
  scenarios : (string * (unit -> Common.queue)) list;
}

let registry =
  {
    title = "registry scalars";
    width = 10;
    faults = None;
    scenarios =
      [
        ("droptail", fun () -> Common.Droptail);
        ("red", fun () -> Common.Red);
        ("sfq", fun () -> Common.Sfq);
        ("drr", fun () -> Common.Drr);
        ("taq", fun () -> taq ~admission:false ());
        ("taq+ac", fun () -> taq ~admission:true ());
      ];
  }

(* --- the fault golden table ---------------------------------------------

   Same workload, but the bottleneck link flaps for 2 s while every
   flow is still in slow start (the registry's flap-slow-start plan).
   Fault injection is seeded from a split of the env's root PRNG, so
   these scalars pin the whole injector pipeline: a drift in fault
   timing, in the PRNG split discipline, or in flap/recovery dynamics
   shows up here as an explicit diff. *)

let flap_plan =
  match Taq_fault.Plan.of_string "flap@1+2" with
  | Ok p -> p
  | Error msg -> failwith msg

let fault =
  {
    title = "fault scalars (flap during slow start)";
    width = 14;
    faults = Some flap_plan;
    scenarios =
      [
        ("flap/droptail", fun () -> Common.Droptail);
        ("flap/red", fun () -> Common.Red);
        ("flap/sfq", fun () -> Common.Sfq);
        ("flap/taq", fun () -> taq ~admission:false ());
      ];
  }

(* --- the flood (degraded-mode) golden table -----------------------------

   Same long-flow workload, but a SYN flood slams the bottleneck from
   t=5 for 10 s. Under a guarded TAQ (tracker capped at 64, well below
   the flood's distinct-flow churn) the overload guard trips, the
   discipline degrades to droptail for the duration, and then recovers
   and re-learns the survivors. These scalars pin the degraded-mode
   dynamics end to end: cap evictions, the droptail bypass, wait-queue
   shedding on entry, and the post-flood re-learning all feed the final
   fairness/loss numbers. The droptail row is the unguarded control:
   same flood, no guard machinery in the path. *)

let flood_plan =
  match Taq_fault.Plan.of_string "flood@5+10:rate=300,kind=syn" with
  | Ok p -> p
  | Error msg -> failwith msg

let flood =
  {
    title = "flood scalars (guard degrades to droptail)";
    width = 16;
    faults = Some flood_plan;
    scenarios =
      [
        ("flood/droptail", fun () -> Common.Droptail);
        ("flood/taq+guard", fun () -> taq ~admission:true ~guard_cap:64 ());
      ];
  }

let tables = [ registry; fault; flood ]

let row table (name, queue) =
  let jain, util, loss, drops = measure ?faults:table.faults (queue ()) in
  Printf.sprintf "%-*s jain = %.6f;  util = %.6f;  loss = %.6f;  drops = %d;"
    table.width name jain util loss drops

let regen () =
  List.iter
    (fun table ->
      Printf.printf "(* %s *)\n" table.title;
      List.iter (fun sc -> print_endline (row table sc)) table.scenarios)
    tables

(* Each row's committed line, by scenario name. *)
let expected =
  lazy
    (List.filter_map
       (fun line ->
         if String.starts_with ~prefix:"(*" line then None
         else Some (Golden_file.first_word line, line))
       (Golden_file.lines "scalars"))

let check_row table ((name, _) as sc) () =
  match List.assoc_opt name (Lazy.force expected) with
  | None -> Alcotest.failf "%s has no line in scalars.expected" name
  | Some line -> Alcotest.(check string) name line (row table sc)

let () =
  Golden_file.main ~suite:"taq_golden" ~regen
    (List.map
       (fun table ->
         ( table.title,
           List.map
             (fun ((name, _) as sc) ->
               Alcotest.test_case name `Slow (check_row table sc))
             table.scenarios ))
       tables)

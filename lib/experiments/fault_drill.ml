module Injector = Taq_fault.Injector
module Plan = Taq_fault.Plan

type outcome = {
  scenario : string;
  queue : string;
  flows : int;
  completed : int;
  injected : int;
  restarts : int;
  tracked_before_restart : int;
  tracked_at_end : int;
  degraded_entered : int;
  degraded_exited : int;
  peak_tracked : int;
  tracker_cap : int;
  guard_mode : string;
  recovery : (string * string) list;
  ok : bool;
  problems : string list;
}

(* The cap used for flood drills: small enough that the registry's
   flood rates overflow it within a second, large enough that the
   legitimate drill flows never come near it on their own. *)
let flood_guard_cap = 256

let disc_of_string s =
  match Common.disc_of_string s with
  | Ok "taq+ac" ->
      Error
        (Printf.sprintf
           "%s: each drill already chooses TAQ's admission control and \
            overload guard for its scenario (flood plans drill both); use taq"
           s)
  | r -> r

let run ~scenario ~plan ~queue ?(flows = 8) ?(segments = 400)
    ?(duration = 90.0) ?(seed = 1) () =
  let rtt = 0.1 and capacity_bps = 400e3 in
  let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:1.0 in
  let flood = Plan.has_flood plan in
  let queue =
    (* Flood plans get the overload guard (the machinery under drill)
       plus admission control, whose waiting table is one of the
       guard's pressure signals. *)
    match queue with
    | Common.Taq _ when flood ->
        Common.Taq
          (Common.taq_config ~admission:true ~guard_cap:flood_guard_cap ())
    | q -> q
  in
  let env = Common.make_env ~faults:plan ~queue ~capacity_bps ~buffer_pkts ~seed () in
  let completed = ref 0 in
  for _ = 1 to flows do
    ignore
      (Common.spawn_finite_flow env ~segments ~rtt
         ~on_complete:(fun _time -> incr completed)
         ())
  done;
  Common.run env ~until:duration;
  let injected, restarts, tracked_before_restart =
    match env.Common.faults with
    | None -> (0, 0, 0)
    | Some inj ->
        let s = Injector.stats inj in
        ( Injector.injected_total inj,
          s.Injector.restarts,
          s.Injector.tracked_before_restart )
  in
  let tracked_at_end =
    match env.Common.taq with
    | None -> 0
    | Some t ->
        Taq_core.Flow_tracker.tracked_flow_count (Taq_core.Taq_disc.tracker t)
  in
  let degraded_entered, degraded_exited, peak_tracked, tracker_cap, guard_mode
      =
    match env.Common.taq with
    | None -> (0, 0, 0, 0, "-")
    | Some t -> (
        let tr = Taq_core.Taq_disc.tracker t in
        match Taq_core.Taq_disc.guard t with
        | None -> (0, 0, Taq_core.Flow_tracker.peak_tracked tr, 0, "-")
        | Some g ->
            ( Taq_core.Overload.degraded_entered g,
              Taq_core.Overload.degraded_exited g,
              Taq_core.Flow_tracker.peak_tracked tr,
              flood_guard_cap,
              Taq_core.Overload.mode_name (Taq_core.Overload.mode g) ))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if !completed < flows then
    problem "only %d/%d flows completed by t=%g" !completed flows duration;
  if Plan.is_empty plan then problem "empty fault plan (nothing to drill)"
  else if Plan.middlebox_only plan && env.Common.taq = None then
    problem "restart-only plan against a queue without a middlebox"
  else if injected = 0 then
    problem "plan injected no faults (silent no-op scenario)";
  (match env.Common.taq with
  | Some _ when restarts > 0 ->
      if tracked_before_restart = 0 then
        problem "restart fired but TAQ tracked no flows beforehand";
      if tracked_at_end = 0 then
        problem "TAQ did not re-learn any flows after the restart"
  | Some _ | None -> ());
  (* Flood drills assert the full degradation arc: the guard tripped,
     the tracker never outgrew its cap, the mode machine came all the
     way back to Normal after the flood, and TAQ still holds per-flow
     state — i.e. class scheduling is observably restored. *)
  (match env.Common.taq with
  | Some _ when flood ->
      if degraded_entered = 0 then
        problem "flood never tripped the overload guard";
      if degraded_exited < degraded_entered then
        problem "guard still degraded at end of run (entered %d, exited %d)"
          degraded_entered degraded_exited;
      if peak_tracked > tracker_cap then
        problem "tracker peaked at %d flows, above cap %d" peak_tracked
          tracker_cap;
      if guard_mode <> "normal" then
        problem "guard finished in mode %s, not normal" guard_mode;
      if tracked_at_end = 0 then
        problem "TAQ tracks no flows after the flood (nothing re-learned)"
  | Some _ | None -> ());
  (* Recovery times per monitored metric, when the run spec's --resil
     policy attached a monitor to this drill's environment. *)
  let recovery =
    match Common.resil_rows env with
    | None -> []
    | Some rows ->
        List.map
          (fun r ->
            ( r.Taq_resil.Monitor.metric,
              Taq_resil.Monitor.recovery_to_string r.Taq_resil.Monitor.recovery
            ))
          rows
  in
  let problems = List.rev !problems in
  {
    scenario;
    queue = Common.queue_name queue;
    flows;
    completed = !completed;
    injected;
    restarts;
    tracked_before_restart;
    tracked_at_end;
    degraded_entered;
    degraded_exited;
    peak_tracked;
    tracker_cap;
    guard_mode;
    recovery;
    ok = problems = [];
    problems;
  }

let print outcomes =
  let columns =
    [ "scenario"; "queue"; "flows"; "done"; "injected"; "restarts";
      "tracked"; "guard"; "recover"; "status" ]
  in
  let table = Taq_util.Table.create ~columns in
  List.iter
    (fun o ->
      Taq_util.Table.add_row table
        [
          o.scenario;
          o.queue;
          string_of_int o.flows;
          string_of_int o.completed;
          string_of_int o.injected;
          string_of_int o.restarts;
          (if o.restarts > 0 then
             Printf.sprintf "%d->%d" o.tracked_before_restart o.tracked_at_end
           else string_of_int o.tracked_at_end);
          (if o.tracker_cap > 0 then
             Printf.sprintf "%s %din/%dout peak=%d/%d" o.guard_mode
               o.degraded_entered o.degraded_exited o.peak_tracked
               o.tracker_cap
           else "-");
          (if o.recovery = [] then "-"
           else
             String.concat " "
               (List.map (fun (m, v) -> Printf.sprintf "%s=%s" m v) o.recovery));
          (if o.ok then "ok" else String.concat "; " o.problems);
        ])
    outcomes;
  Taq_util.Table.print table

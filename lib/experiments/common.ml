module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Tcp_sender = Taq_tcp.Tcp_sender
module Taq_config = Taq_core.Taq_config
module Taq_disc = Taq_core.Taq_disc
module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type queue =
  | Droptail
  | Red
  | Sfq
  | Drr
  | Choke
  | Choked
  | Codel
  | Las
  | Taq of Taq_config.t

let queue_name = function
  | Droptail -> "droptail"
  | Red -> "red"
  | Sfq -> "sfq"
  | Drr -> "drr"
  | Choke -> "choke"
  | Choked -> "choked"
  | Codel -> "codel"
  | Las -> "las"
  | Taq _ -> "taq"

type env = {
  sim : Sim.t;
  net : Dumbbell.t;
  taq : Taq_disc.t option;
  loss : Taq_metrics.Loss_monitor.t;
  slicer : Taq_metrics.Slicer.t;
  evolution : Taq_metrics.Flow_evolution.t;
  prng : Taq_util.Prng.t;
  check : Check.t;
  obs : Obs.t;
  faults : Taq_fault.Injector.t option;
  resil : Taq_resil.Monitor.t option;
}

let pkt_bytes = Tcp_config.packet_bytes

let default_tcp = Tcp_config.make ~use_syn:false ()

let taq_config ?(admission = false) ?guard_cap () =
  let config =
    if admission then
      Taq_config.with_admission ~capacity_pkts:1 ~capacity_bps:1.0
    else Taq_config.default ~capacity_pkts:1 ~capacity_bps:1.0
  in
  match guard_cap with
  | None -> config
  | Some cap -> Taq_config.with_guard ~max_tracked_flows:cap config

(* Every discipline by name, in canonical order: the one table the CLI,
   the sweep matrix and the fault drills resolve names through. A TAQ
   row carries its admission flag. *)
let disc_table =
  [
    ("droptail", `Fixed Droptail); ("red", `Fixed Red); ("sfq", `Fixed Sfq);
    ("drr", `Fixed Drr); ("choke", `Fixed Choke); ("choked", `Fixed Choked);
    ("codel", `Fixed Codel); ("las", `Fixed Las); ("taq", `Taq false);
    ("taq+ac", `Taq true);
  ]

let disc_aliases = [ ("dt", "droptail"); ("taq-ac", "taq+ac") ]

let disc_names = List.map fst disc_table

let disc_of_string s =
  let name = Option.value (List.assoc_opt s disc_aliases) ~default:s in
  if List.mem_assoc name disc_table then Ok name
  else Error (Printf.sprintf "unknown queue %S" s)

let queue_of_disc ?guard_cap name =
  match Result.map (fun n -> List.assoc n disc_table) (disc_of_string name) with
  | Error msg -> invalid_arg ("Common.queue_of_disc: " ^ msg)
  | Ok (`Fixed q) -> q
  | Ok (`Taq admission) -> Taq (taq_config ~admission ?guard_cap ())

let make_env ?check ?obs ?faults ?resil ~queue ~capacity_bps ~buffer_pkts
    ?(slice = 20.0) ?(seed = 1) () =
  (* One checker per environment: the simulator, link, TAQ middlebox and
     every TCP sender share it, so counters aggregate in one place. The
     observability instance works the same way: one per env, shared by
     the simulator, link, discipline and fault injector via [Sim.obs]. *)
  let spec = Run_spec.current () in
  let check =
    match check with Some c -> c | None -> Run_spec.checker spec
  in
  let obs = match obs with Some o -> o | None -> Run_spec.observer spec in
  let sim = Sim.create ~check ~obs () in
  let prng = Taq_util.Prng.create ~seed in
  let taq = ref None in
  let disc =
    match queue with
    | Droptail -> Taq_queueing.Droptail.create ~capacity_pkts:buffer_pkts
    | Red ->
        Taq_queueing.Red.create ~capacity_pkts:buffer_pkts
          ~now:(fun () -> Sim.now sim)
          ~prng:(Taq_util.Prng.split prng) ()
    | Sfq -> Taq_queueing.Sfq.create ~capacity_pkts:buffer_pkts ()
    | Drr -> Taq_queueing.Drr.create ~capacity_pkts:buffer_pkts ()
    | Choke ->
        Taq_queueing.Choke.create ~capacity_pkts:buffer_pkts
          ~prng:(Taq_util.Prng.split prng) ()
    | Choked ->
        Taq_queueing.Choked.create ~capacity_pkts:buffer_pkts
          ~prng:(Taq_util.Prng.split prng) ()
    | Codel ->
        Taq_queueing.Codel.create ~capacity_pkts:buffer_pkts
          ~now:(fun () -> Sim.now sim)
          ()
    | Las -> Taq_queueing.Las.create ~capacity_pkts:buffer_pkts ()
    | Taq config ->
        (* The run's geometry, validated as [Taq_config.default]
           validates it; every other field is the caller's. *)
        let { Taq_config.capacity_pkts; capacity_bps; _ } =
          Taq_config.default ~capacity_pkts:buffer_pkts ~capacity_bps
        in
        let config = { config with capacity_pkts; capacity_bps } in
        let t = Taq_disc.create ~check ~sim ~config () in
        taq := Some t;
        Taq_disc.disc t
  in
  (* Shadow-model cross-checking of whichever discipline is installed
     (including TAQ itself) when the Queueing group is on; [wrap]
     returns [disc] unchanged otherwise. *)
  let disc = Taq_queueing.Checked.wrap ~check disc in
  (* Counter instrumentation goes outermost so it observes exactly the
     operations the link performs (including shadow-model rejections
     were the checker ever to alter behaviour — it must not). *)
  let disc = Taq_queueing.Observed.wrap ~obs disc in
  let net = Dumbbell.create ~check ~sim ~capacity_bps ~disc () in
  let loss = Taq_metrics.Loss_monitor.attach (Dumbbell.link net) in
  (* Fault injection: an explicit plan wins; otherwise the run spec's
     --faults plan (if any). The injector's PRNG is split from the env
     root only when a plan is present, so fault-free runs keep
     byte-identical random streams with or without this layer. *)
  let fault_plan = match faults with Some p -> Some p | None -> spec.faults in
  let faults =
    match fault_plan with
    | Some plan when not (Taq_fault.Plan.is_empty plan) ->
        Some
          (Taq_fault.Injector.install ?taq:!taq ~net
             ~prng:(Taq_util.Prng.split prng) plan)
    | Some _ | None -> None
  in
  (* Resilience monitor: an explicit [resil] wins; otherwise the run
     spec's --resil. The monitor is read-only (no PRNG draws, no queue
     perturbation), so attaching it never changes the simulated
     trajectory — metrics with and without --resil are byte-identical.
     It is armed by {!run}. *)
  let resil =
    if Option.value resil ~default:spec.resil then
      Some
        (Taq_resil.Monitor.create ~check ~obs ~sim ~link:(Dumbbell.link net)
           ~plan:(Option.value fault_plan ~default:[]))
    else None
  in
  {
    sim;
    net;
    taq = !taq;
    loss;
    slicer = Taq_metrics.Slicer.create ~slice;
    evolution = Taq_metrics.Flow_evolution.create ~window:5.0;
    prng;
    check;
    obs;
    faults;
    resil;
  }

let instrument env session =
  let flow = Tcp_session.flow_id session in
  let receiver = Tcp_session.receiver session in
  Tcp_receiver.on_segment receiver (fun _seq ->
      let time = Sim.now env.sim in
      Taq_metrics.Slicer.record env.slicer ~flow ~time ~bytes:pkt_bytes;
      Taq_metrics.Flow_evolution.note_activity env.evolution ~flow ~time;
      match env.resil with
      | Some m -> Taq_resil.Monitor.note_delivery m ~flow ~bytes:pkt_bytes
      | None -> ())

let spawn_long_flows env ?(tcp = default_tcp) ~n ~rtt ?(rtt_jitter = 0.0) () =
  Array.init n (fun _ ->
      let rtt_prop =
        if rtt_jitter > 0.0 then
          Taq_util.Prng.uniform env.prng ~lo:(rtt *. (1.0 -. rtt_jitter))
            ~hi:(rtt *. (1.0 +. rtt_jitter))
        else rtt
      in
      let session =
        Tcp_session.create ~net:env.net ~config:tcp ~rtt_prop
          ~total_segments:max_int ()
      in
      let flow = Tcp_session.flow_id session in
      instrument env session;
      Taq_metrics.Flow_evolution.note_start env.evolution ~flow
        ~time:(Sim.now env.sim);
      Tcp_session.start session;
      flow)

let spawn_finite_flow env ?(tcp = default_tcp) ~segments ~rtt ?at ~on_complete
    () =
  let flow_ref = ref (-1) in
  let session =
    Tcp_session.create ~net:env.net ~config:tcp ~rtt_prop:rtt
      ~total_segments:segments
      ~on_complete:(fun time ->
        Taq_metrics.Flow_evolution.note_finish env.evolution ~flow:!flow_ref
          ~time;
        on_complete time)
      ()
  in
  let flow = Tcp_session.flow_id session in
  flow_ref := flow;
  instrument env session;
  let start () =
    Taq_metrics.Flow_evolution.note_start env.evolution ~flow
      ~time:(Sim.now env.sim);
    Tcp_session.start session
  in
  (match at with
  | None -> start ()
  | Some time -> Sim.schedule env.sim ~at:time start);
  flow

let run env ~until =
  (match env.resil with
  | Some m -> Taq_resil.Monitor.arm m ~until
  | None -> ());
  Sim.run ~until env.sim

let resil_rows env = Option.map Taq_resil.Monitor.rows env.resil

let utilization env = Taq_net.Link.utilization (Dumbbell.link env.net)

let measured_loss_rate env = Taq_metrics.Loss_monitor.overall_rate env.loss

let flows_for_fair_share ~capacity_bps ~fair_share_bps =
  Stdlib.max 1 (int_of_float (Float.round (capacity_bps /. fair_share_bps)))

let buffer_for_rtts ~capacity_bps ~rtt ~rtts =
  Stdlib.max 1
    (int_of_float (capacity_bps *. rtt *. rtts /. (8.0 *. float_of_int pkt_bytes)))

let taq_marker = queue_of_disc "taq"

(* taq_sim: the command-line front end.

   Subcommands:
     experiment  run paper-figure reproductions by name (all by default)
     sim         ad-hoc dumbbell contention run with any queue
     sweep       a (discipline x capacity x fair-share x rep) grid on a
                 Domain worker pool, with an on-disk result cache
     faults      run the canonical fault-scenario registry and assert
                 the recovery properties it promises
     model       evaluate the idealized Markov models
     trace       generate a synthetic proxy access trace (CSV) *)

open Cmdliner
open Taq_experiments
module Harness = Taq_harness
module Check = Taq_check.Check
module Obs = Taq_obs.Obs
module Fault_plan = Taq_fault.Plan
module Scenarios = Taq_fault.Scenarios

(* --- run spec ----------------------------------------------------------- *)

(* [--check], [--obs], [--faults] and [--resil] make up the run spec
   (Run_spec): parsed once by [spec_term], installed once by the
   subcommand before any simulation (or worker domain) starts, and
   resolved into per-environment instances by Common.make_env. *)
let check_arg =
  Arg.(
    value
    & opt ~vopt:(Some "all") (some string) None
    & info [ "check" ] ~docv:"GROUPS"
        ~doc:
          "Enable runtime invariant checking. $(docv) is a comma-separated \
           subset of engine, net, queueing, tcp, core, guard, fluid, resil \
           (default: all). The first violation aborts the run.")

let obs_arg =
  Arg.(
    value
    & opt ~vopt:(Some "counters") (some string) None
    & info [ "obs" ] ~docv:"SPEC"
        ~doc:
          "Enable perf observability. $(docv) is a comma-separated list of \
           $(b,counters) (deterministic event counters — the default), \
           $(b,trace) or $(b,trace:PATH) (Chrome trace_event JSON of the \
           simulated timeline, default path taq.trace.json; implies \
           counters) and $(b,off). Counters are deterministic: equal seeds \
           print equal values for any --jobs count.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject deterministic faults. $(docv) is a fault-plan expression \
           (e.g. 'flap@5+2;corrupt@8-12:p=0.01') or a scenario name from \
           $(b,taq_sim faults --list). The plan is seeded from each run's \
           PRNG, so equal seeds give byte-identical fault timelines.")

(* The resilience monitor is read-only, so metrics with and without
   --resil are byte-identical. *)
let resil_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "resil" ] ~docv:"SPEC"
        ~doc:
          "Monitor resilience SLOs: rolling windows of Jain fairness, drop \
           rate and bottleneck occupancy, a pre-fault baseline, peak \
           deviation inside fault windows, and per-metric time-to-recover \
           after the fault plan clears. $(docv) is a comma-separated list of \
           key=value overrides of the canonical parameters (period, sustain, \
           eps-jain, eps-drop, eps-occ-frac, eps-occ-floor); bare $(b,--resil) \
           uses the defaults. Deterministic: equal seeds report equal \
           recovery times at any --jobs count.")

(* A subcommand without one of the four flags passes [absent] for it. *)
let absent = Term.const None

(* Whether a flag was given at all, whatever its value. *)
let given arg = Term.(const Option.is_some $ arg)

let spec_term ?(check = check_arg) ?(obs = obs_arg) ?(faults = faults_arg)
    ?(resil = resil_arg) () =
  Term.(
    const (fun check obs faults resil ->
        Run_spec.of_flags ?check ?obs ?faults ?resil ())
    $ check $ obs $ faults $ resil)

(* A file the run will write is opened for writing before any work, so
   a bad path fails up front, naming the path with exit 124, rather
   than as an uncaught exception (exit 125) after the whole run. *)
let writable path k =
  match path with
  | None -> k ()
  | Some path -> (
      match open_out path with
      | oc ->
          close_out oc;
          k ()
      | exception Sys_error msg -> `Error (false, "cannot write " ^ msg))

(* Install the parsed spec and run [k] with it: a bad flag value, an
   unwritable trace path or an invariant violation fails the subcommand
   with its message. *)
let with_spec spec k =
  match spec with
  | Error msg -> `Error (false, msg)
  | Ok spec -> (
      writable (Run_spec.trace_path spec) @@ fun () ->
      Run_spec.install spec;
      try k spec
      with Check.Violation msg ->
        `Error (false, Printf.sprintf "invariant violation: %s" msg))

(* A clause starting at or past the horizon would silently inject
   nothing — reject it up front with the parser's actionable message. *)
let within_horizon spec ~duration k =
  match spec.Run_spec.faults with
  | Some plan -> (
      match Fault_plan.check_within ~run_until:duration plan with
      | Ok () -> k ()
      | Error msg -> `Error (false, msg))
  | None -> k ()

(* Every mega shard models at least one flow (Mega_tier.run raises
   otherwise): reject fewer flows than shards before any work. *)
let flows_cover_shards ~flows ~shards k =
  if flows < shards then
    `Error
      ( false,
        Printf.sprintf "--flows (%d) must be at least --shards (%d)" flows
          shards )
  else k ()

(* Print the counter report and, when tracing was requested, write the
   Chrome trace file from a merged snapshot. *)
let finish_obs spec snap =
  print_string (Obs.report snap);
  match Run_spec.trace_path spec with
  | None -> ()
  | Some path ->
      Taq_obs.Trace.write_file ~path snap.Obs.events;
      Printf.printf "  chrome trace: %d event(s) written to %s\n"
        (List.length snap.Obs.events)
        path

(* --- numbers -------------------------------------------------------------- *)

(* Every float flag parses through [finite]. A NaN or infinite rate,
   time or probability would run a simulation that transmits nothing
   and still exit 0. It rejects what [Float.is_finite] rejects, as the
   fault-plan parser does. *)
let finite =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.float s with
        | Ok x when Float.is_finite x -> Ok x
        | Ok _ -> Error (`Msg (Printf.sprintf "expected a finite number, got %S" s))
        | Error _ as e -> e),
      Arg.conv_printer Arg.float )

(* Every float flag but [model -p] is a capacity, fair share, RTT,
   duration, buffer size, step or deadline, and parses through
   [positive]. Zero or a negative value would run nothing, run one flow
   per point or have [Sim] clamp every delay to 0, and still exit 0, or
   raise from inside the library (exit 125). *)
let positive =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser finite s with
        | Ok x when x > 0.0 -> Ok x
        | Ok _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
        | Error _ as e -> e),
      Arg.conv_printer Arg.float )

(* Every int flag but a seed is a count and parses through [at_least]:
   below its bound a count would run nothing and exit 0, or raise from
   inside the library (exit 125). Seeds take any int. *)
let at_least lo =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.int s with
        | Ok n when n >= lo -> Ok n
        | Ok _ ->
            Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
        | Error _ as e -> e),
      Arg.conv_printer Arg.int )

(* Every subcommand that runs work on the Domain pool takes the same
   worker count: the harness seeds each task from its key, so results
   do not depend on it. *)
let jobs_arg =
  Arg.(
    value & opt (at_least 1) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains. 1 runs sequentially in-process; outputs are \
           byte-identical at any jobs count.")

(* [model -p] is a loss probability, and both models are defined on
   [0, 0.5): outside it they raise from inside the library (exit 125). *)
let loss_probability =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser finite s with
        | Ok p when p >= 0.0 && p < 0.5 -> Ok p
        | Ok _ ->
            Error
              (`Msg (Printf.sprintf "expected a probability in [0, 0.5), got %S" s))
        | Error _ as e -> e),
      Arg.conv_printer Arg.float )

(* --- disciplines -------------------------------------------------------- *)

(* Parses to the canonical name: keys and reports never see aliases. *)
let name_conv of_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (of_string s)),
      Format.pp_print_string )

let disc_conv = name_conv Common.disc_of_string

let disc_list = String.concat ", " Common.disc_names

(* --- traffic backend ---------------------------------------------------- *)

(* [--backend=hybrid] swaps the background cohort for the mean-field
   fluid aggregate (lib/fluid): the env attaches a Source ticking every
   --fluid-dt, and the foreground flows spawned by the subcommand stay
   real packet-level TCP. The default packet backend takes exactly the
   construction path it always did, so its outputs are byte-identical
   to builds that predate the fluid subsystem. *)
let backend_arg =
  Arg.(
    value
    & opt (enum [ ("packet", `Packet); ("hybrid", `Hybrid) ]) `Packet
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Traffic backend: $(b,packet) (every flow is a real TCP state \
           machine; the default) or $(b,hybrid) (the background cohort is a \
           mean-field fluid aggregate coupled to the bottleneck — size it \
           with $(b,--bg-flows), step it with $(b,--fluid-dt)).")

let bg_flows_arg =
  Arg.(
    value & opt (at_least 1) 60
    & info [ "bg-flows" ] ~docv:"N"
        ~doc:
          "Hybrid backend only: background flows modeled by the fluid \
           aggregate.")

let fluid_dt_arg =
  Arg.(
    value & opt positive 0.05
    & info [ "fluid-dt" ] ~docv:"S"
        ~doc:"Hybrid backend only: fluid integration step, seconds.")

let resolve_backend backend ~bg_flows ~fluid_dt ~rtt ~capacity_bps ~buffer_pkts
    =
  match backend with
  | `Packet -> Common.Packet
  | `Hybrid ->
      Common.Hybrid
        (Taq_fluid.Model.make_params ~rtt_prop:rtt ~pkt_bytes:Common.pkt_bytes
           ~dt:fluid_dt ~n_flows:bg_flows ~capacity_bps
           ~buffer_bytes:(buffer_pkts * Common.pkt_bytes)
           ())

(* --- experiment ------------------------------------------------------- *)

(* The named registry targets, or all of them, run as tasks on the
   worker pool. Each task captures its own output, so the outputs print
   in registry order and are byte-identical at any --jobs; the counters
   merge in the same order. A target that raises fails the command with
   its own exception, as a direct run would. *)
let experiment_cmd =
  let names_arg =
    let doc =
      Printf.sprintf "Experiments to run, from %s (default: all of them)."
        (String.concat ", " Registry.names)
    in
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-fidelity parameters.")
  in
  let run names full jobs spec =
    match List.find_opt (fun n -> Registry.find n = None) names with
    | Some name ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S (known: %s)" name
              (String.concat ", " Registry.names) )
    | None ->
        with_spec spec @@ fun spec ->
        let targets =
          List.filter_map
            (fun n ->
              if names = [] || List.mem n names then Registry.find n else None)
            Registry.names
        in
        let results =
          Harness.Pool.run ~obs:(Run_spec.observer spec) ~jobs
            (List.map
               (fun t ->
                 Harness.Task.make ~key:t.Registry.name (fun ~seed:_ ->
                     match Registry.capture t ~full with
                     | output -> Ok output
                     | exception e -> Error e))
               targets)
        in
        List.iter2
          (fun t r ->
            if List.length targets > 1 then
              Printf.printf "\n==== %s: %s ====\n\n" t.Registry.name
                t.Registry.description;
            match Harness.Pool.value_exn r with
            | Ok output -> print_string output
            | Error e -> raise e)
          targets results;
        if Run_spec.check_enabled spec then
          Printf.eprintf "invariant checks: clean (experiment %s)\n"
            (String.concat " " (List.map (fun t -> t.Registry.name) targets));
        if Run_spec.obs_enabled spec then
          finish_obs spec
            (Obs.merge_all
               (Obs.root_snapshot ()
               :: List.map (fun r -> r.Harness.Pool.obs) results));
        `Ok ()
  in
  let doc = "Reproduce the paper's figures" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      ret
        (const run $ names_arg $ full_arg $ jobs_arg
       $ spec_term ~resil:absent ()))

(* --- sim ---------------------------------------------------------------- *)

let sim_cmd =
  let queue =
    Arg.(
      value
      & opt disc_conv "droptail"
      & info [ "q"; "queue" ] ~docv:"QUEUE"
          ~doc:(Printf.sprintf "Queue discipline: one of %s." disc_list))
  in
  let capacity =
    Arg.(
      value & opt positive 600e3
      & info [ "c"; "capacity" ] ~docv:"BPS" ~doc:"Bottleneck capacity, bits/s.")
  in
  let flows =
    Arg.(
      value & opt (at_least 0) 60
      & info [ "n"; "flows" ] ~docv:"N" ~doc:"Long-lived flows.")
  in
  let rtt =
    Arg.(value & opt positive 0.2 & info [ "rtt" ] ~docv:"S" ~doc:"Propagation RTT.")
  in
  let duration =
    Arg.(value & opt positive 200.0 & info [ "d"; "duration" ] ~docv:"S" ~doc:"Run length.")
  in
  let buffer_rtts =
    Arg.(
      value & opt positive 1.0
      & info [ "buffer-rtts" ] ~docv:"RTTS" ~doc:"Buffer size in RTTs of delay.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let guard =
    Arg.(
      value
      & opt ~vopt:(Some 256) (some (at_least 1)) None
      & info [ "guard" ] ~docv:"CAP"
          ~doc:
            "Enable the TAQ overload guard with a flow-tracker cap of $(docv) \
             flows (default 256 when the flag is given bare). Only meaningful \
             with --queue taq or taq+ac: the tracker evicts idle-first/LRU at \
             the cap and the guard degrades to droptail under sustained \
             eviction churn or admission pressure, recovering with \
             hysteresis.")
  in
  let pcap =
    Arg.(
      value & opt (some string) None
      & info [ "pcap" ] ~docv:"PATH"
          ~doc:
            "Record every enqueue/drop/delivery at the bottleneck and write \
             the packet log as CSV to $(docv).")
  in
  let run queue capacity flows rtt duration buffer_rtts seed guard pcap backend
      bg_flows fluid_dt spec =
    with_spec spec @@ fun spec ->
    within_horizon spec ~duration @@ fun () ->
    writable pcap @@ fun () ->
    let buffer_pkts =
      Common.buffer_for_rtts ~capacity_bps:capacity ~rtt ~rtts:buffer_rtts
    in
    let backend =
      resolve_backend backend ~bg_flows ~fluid_dt ~rtt ~capacity_bps:capacity
        ~buffer_pkts
    in
    let q =
      Common.queue_of_disc ?guard_cap:guard ~capacity_bps:capacity ~buffer_pkts
        queue
    in
    let env =
      Common.make_env ~backend ~queue:q ~capacity_bps:capacity ~buffer_pkts
        ~seed ()
    in
    let log =
      Option.map
        (fun _ ->
          Taq_metrics.Packet_log.attach
            ~now:(fun () -> Taq_engine.Sim.now env.Common.sim)
            (Taq_net.Dumbbell.link env.Common.net))
        pcap
    in
    let ids = Common.spawn_long_flows env ~n:flows ~rtt ~rtt_jitter:0.1 () in
    Common.run env ~until:duration;
    (match (pcap, log) with
    | Some path, Some log ->
        Taq_metrics.Packet_log.save_csv log ~path;
        Printf.printf "packet log: %d events written to %s\n"
          (Taq_metrics.Packet_log.count log)
          path
    | _ -> ());
    let series =
      Taq_metrics.Flow_evolution.series env.Common.evolution ~until:duration
    in
    Printf.printf
      "queue=%s backend=%s capacity=%.0fbps flows=%d buffer=%dpkts \
       duration=%.0fs\n"
      (Common.queue_name q)
      (Common.backend_name backend)
      capacity flows buffer_pkts duration;
    Printf.printf "  short-term Jain (20s slices): %.3f\n"
      (Taq_metrics.Slicer.mean_jain env.Common.slicer ~flows:ids ~first:1 ());
    Printf.printf "  long-term Jain:               %.3f\n"
      (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids);
    Printf.printf "  utilization:                  %.3f\n" (Common.utilization env);
    Printf.printf "  packet loss rate:             %.4f\n"
      (Common.measured_loss_rate env);
    Printf.printf "  stalled-flow fraction:        %.3f\n"
      (Taq_metrics.Flow_evolution.stalled_fraction series);
    (match env.Common.taq with
    | None -> ()
    | Some t ->
        let st = Taq_core.Taq_disc.stats t in
        Printf.printf
          "  taq: enqueued=%d dropped=%d admission_rejected=%d forced_recovery=%d\n"
          st.Taq_core.Taq_disc.enqueued st.Taq_core.Taq_disc.dropped
          st.Taq_core.Taq_disc.admission_rejected
          st.Taq_core.Taq_disc.forced_recovery_drops;
        match Taq_core.Taq_disc.guard t with
        | None -> ()
        | Some g ->
            let tr = Taq_core.Taq_disc.tracker t in
            Printf.printf "  %s peak_tracked=%d cap_evictions=%d\n"
              (Taq_core.Overload.report g)
              (Taq_core.Flow_tracker.peak_tracked tr)
              (Taq_core.Flow_tracker.cap_evictions tr));
    (match env.Common.fluid with
    | None -> ()
    | Some src -> Printf.printf "  %s\n" (Taq_fluid.Source.report src));
    (match env.Common.faults with
    | None -> ()
    | Some inj ->
        Printf.printf "  %s\n" (Taq_fault.Injector.report inj);
        if Taq_fault.Injector.injected_total inj = 0 then
          Printf.printf
            "  warning: the fault plan injected nothing (every fault.* \
             counter is zero) — check the clause windows against the run \
             duration and the traffic they should hit\n");
    (match Common.resil_rows env with
    | None -> ()
    | Some rows ->
        List.iter
          (fun row ->
            Printf.printf "  %s\n" (Taq_resil.Monitor.row_line row))
          rows);
    if Run_spec.check_enabled spec then
      print_string (Check.report env.Common.check);
    if Run_spec.obs_enabled spec then
      finish_obs spec (Obs.snapshot env.Common.obs);
    `Ok ()
  in
  let doc = "Ad-hoc dumbbell contention run" in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      ret
        (const run $ queue $ capacity $ flows $ rtt $ duration $ buffer_rtts
       $ seed $ guard $ pcap $ backend_arg $ bg_flows_arg $ fluid_dt_arg
       $ spec_term ()))

(* --- sweep ---------------------------------------------------------------- *)

(* One grid point: an independent simulation whose PRNG seed derives
   from the task key (splitmix over the key), so the result is the same
   whichever worker domain runs it, in whatever order. Output goes
   through the Out sink so the harness captures it per task. *)
let sweep_point ~queue ~backend ~capacity ~fair_share ~rtt ~duration
    ~buffer_pkts ~rep ~seed () =
  let flows =
    Common.flows_for_fair_share ~capacity_bps:capacity ~fair_share_bps:fair_share
  in
  let env =
    Common.make_env ~backend ~queue ~capacity_bps:capacity ~buffer_pkts ~seed ()
  in
  let ids = Common.spawn_long_flows env ~n:flows ~rtt ~rtt_jitter:0.1 () in
  Common.run env ~until:duration;
  let out = Taq_util.Out.printf in
  out "queue=%s backend=%s capacity=%.0f fair_share=%.0f flows=%d rep=%d seed=%d\n"
    (Common.queue_name queue)
    (Common.backend_name backend)
    capacity fair_share flows rep seed;
  out "  jain_short=%.3f jain_long=%.3f utilization=%.3f loss_rate=%.4f\n"
    (Taq_metrics.Slicer.mean_jain env.Common.slicer ~flows:ids ~first:1 ())
    (Taq_metrics.Slicer.long_term_jain env.Common.slicer ~flows:ids)
    (Common.utilization env)
    (Common.measured_loss_rate env);
  (match Common.resil_rows env with
  | None -> ()
  | Some rows ->
      List.iter
        (fun row -> out "  %s\n" (Taq_resil.Monitor.row_line row))
        rows);
  match env.Common.fluid with
  | None -> ()
  | Some src -> out "  %s\n" (Taq_fluid.Source.report src)

let sweep_cmd =
  let queues =
    Arg.(
      value
      & opt (list disc_conv) []
      & info [ "queues" ] ~docv:"QUEUES"
          ~doc:
            (Printf.sprintf
               "Comma-separated disciplines (%s). Default: droptail,taq — or \
                the full zoo with $(b,--matrix)."
               disc_list))
  in
  let matrix =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:
            "Run the disc x tcp x workload x fault cell matrix instead of \
             the classic capacity/fair-share grid: every discipline crossed \
             with every --tcps stack, --workloads scenario and --fault-axis \
             fault at the quick golden scale, one cell report line (plus \
             per-metric resilience lines) each, and the merged per-cell \
             Jain/drop-rate/recovery table. The guard (--guard) stays an \
             axis of the cell key; the fault axis owns fault injection \
             (--faults is rejected) and every cell runs the resilience \
             monitor with canonical parameters (--resil is rejected).")
  in
  let fault_axis =
    Arg.(
      value
      & opt (list string) Matrix.default_fault_axis
      & info [ "fault-axis" ] ~docv:"FAULTS"
          ~doc:
            "Matrix mode: comma-separated fault-axis scenarios crossed with \
             every cell (none, flap, flood, brownout, jitter). Each fault is \
             folded into the cell's task key, so faulted cells draw their \
             own seeds and never alias fault-free cache entries.")
  in
  let tcps =
    Arg.(
      value
      & opt (list string) [ "newreno"; "cubic" ]
      & info [ "tcps" ] ~docv:"TCPS"
          ~doc:
            "Matrix mode: comma-separated TCP profiles (newreno, sack, \
             cubic).")
  in
  let workloads =
    Arg.(
      value
      & opt (list string) [ "longmix"; "mice" ]
      & info [ "workloads" ] ~docv:"WLS"
          ~doc:"Matrix mode: comma-separated workloads (longmix, mice).")
  in
  let capacities =
    Arg.(
      value
      & opt (list positive) [ 600e3 ]
      & info [ "capacities" ] ~docv:"BPS,.." ~doc:"Bottleneck capacities, bits/s.")
  in
  let fair_shares =
    Arg.(
      value
      & opt (list positive) [ 4e3; 10e3; 20e3; 40e3 ]
      & info [ "fair-shares" ] ~docv:"BPS,.." ~doc:"Per-flow fair shares, bits/s.")
  in
  let reps =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "reps" ] ~docv:"N"
          ~doc:"Replicas per point (each derives its own seed from the task key).")
  in
  let rtt =
    Arg.(value & opt positive 0.2 & info [ "rtt" ] ~docv:"S" ~doc:"Propagation RTT.")
  in
  let duration =
    Arg.(value & opt positive 200.0 & info [ "d"; "duration" ] ~docv:"S" ~doc:"Run length.")
  in
  let buffer_rtts =
    Arg.(
      value & opt positive 1.0
      & info [ "buffer-rtts" ] ~docv:"RTTS" ~doc:"Buffer size in RTTs of delay.")
  in
  let results_dir =
    Arg.(
      value
      & opt string Harness.Cache.default_dir
      & info [ "results-dir" ] ~docv:"DIR" ~doc:"On-disk result cache directory.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute every point; do not read or write the cache.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a killed or cancelled sweep: replay the write-ahead \
             journal under --results-dir, restore journaled-complete points \
             from the cache (payload digests verified), and re-execute only \
             the remainder. The merged output is byte-identical to an \
             uninterrupted run.")
  in
  let timeout_s =
    Arg.(
      value
      & opt (some positive) None
      & info [ "timeout-s" ] ~docv:"S"
          ~doc:
            "Per-task deadline in seconds. A point that exceeds it is \
             recorded as failed (the worker moves on); with --retries the \
             attempt is retried first.")
  in
  let retries =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry failed or timed-out points up to $(docv) times (with \
             exponential backoff) before quarantining them as failed.")
  in
  let guard =
    Arg.(
      value
      & opt ~vopt:(Some 256) (some (at_least 1)) None
      & info [ "guard" ] ~docv:"CAP"
          ~doc:
            "Enable the TAQ overload guard (tracker cap $(docv), default 256 \
             when given bare) on every taq/taq+ac point. Part of the cache \
             key, so guarded and unguarded sweeps never share entries.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject two deliberately unhealthy tasks (one crashes, one \
             hangs) into the sweep to exercise the pool's quarantine path. \
             They are reported but excluded from the exit status. Requires \
             --timeout-s (the hanging task is only bounded by the deadline).")
  in
  let run queues matrix tcps workloads fault_axis capacities fair_shares reps
      rtt duration buffer_rtts guard backend bg_flows fluid_dt jobs
      results_dir no_cache resume timeout_s retries chaos faults_given
      resil_given spec =
    if chaos && timeout_s = None then
      `Error (false, "--chaos requires --timeout-s (it injects a hanging task)")
    else if resume && no_cache then
      `Error
        (false,
         "--resume needs the cache (restored points live there); drop \
          --no-cache")
    else if matrix && backend <> `Packet then
      `Error (false, "--matrix cells are packet-backend only; drop --backend")
    else if matrix && faults_given then
      `Error
        (false,
         "--matrix owns its fault injection: pick scenarios with \
          --fault-axis (none, flap, flood, brownout, jitter) instead of \
          --faults")
    else if matrix && resil_given then
      `Error
        (false,
         "--matrix cells always run the resilience monitor with canonical \
          parameters (its recovery columns must be comparable across \
          reports); drop --resil")
    else if (not matrix) && fault_axis <> Matrix.default_fault_axis then
      `Error (false, "--fault-axis is a matrix axis; it requires --matrix")
    else
      with_spec spec @@ fun spec ->
      (* Classic-grid hardening: a clause past the sweep duration would
         silently inject nothing in every point. *)
      within_horizon spec ~duration @@ fun () ->
      let check_enabled = Run_spec.check_enabled spec in
      let obs_enabled = Run_spec.obs_enabled spec in
      (* A point is (key, run): the key (Task_key) is the full identity
         — cache key and seed source — and the closure computes the
         point writing its report through Out. The classic grid and the
         matrix build different point lists over the same orchestration
         below. *)
      let classic_points () =
        let queues = if queues = [] then [ "droptail"; "taq" ] else queues in
        List.concat_map
          (fun queue ->
            List.concat_map
              (fun capacity ->
                (* The queue and the fluid params (and hence the key)
                   depend on the point's capacity through the buffer
                   sizing. *)
                let buffer_pkts =
                  Common.buffer_for_rtts ~capacity_bps:capacity ~rtt
                    ~rtts:buffer_rtts
                in
                let backend =
                  resolve_backend backend ~bg_flows ~fluid_dt ~rtt
                    ~capacity_bps:capacity ~buffer_pkts
                in
                let q =
                  Common.queue_of_disc ?guard_cap:guard ~capacity_bps:capacity
                    ~buffer_pkts queue
                in
                List.concat_map
                  (fun fair_share ->
                    List.init reps (fun rep ->
                        ( Task_key.sweep ~queue ~capacity ~fair_share ~rtt
                            ~duration ~buffer_rtts ~rep ?guard_cap:guard
                            ~backend spec,
                          fun ~seed () ->
                            sweep_point ~queue:q ~backend ~capacity
                              ~fair_share ~rtt ~duration ~buffer_pkts ~rep
                              ~seed () )))
                  fair_shares)
              capacities)
          queues
      in
      let matrix_points () =
        let discs = if queues = [] then Matrix.default_discs else queues in
        List.concat_map
          (fun disc ->
            List.concat_map
              (fun tcp ->
                List.concat_map
                  (fun workload ->
                    List.map
                      (fun fault ->
                        (match
                           Matrix.validate ~fault ~disc ~tcp ~workload ()
                         with
                        | Ok () -> ()
                        | Error msg -> failwith msg);
                        ( Task_key.matrix ~disc ~tcp ~workload ~fault
                            ?guard_cap:guard (),
                          fun ~seed () ->
                            Matrix.run_cell ~disc ~tcp ~workload ~fault
                              ?guard_cap:guard ~seed () ))
                      fault_axis)
                  workloads)
              tcps)
          discs
      in
      match
        if matrix then
          try Ok (matrix_points ()) with Failure msg -> Error msg
        else Ok (classic_points ())
      with
      | Error msg -> `Error (false, msg)
      | Ok points ->
      Harness.Pool.install_signal_cancellation ~label:"sweep" ();
      (* The cache's, journal's and pool's own counters. *)
      let obs = Run_spec.observer spec in
      (* Durability: points already in the results dir are served, the
         rest run and are persisted as each finishes, with a
         write-ahead journal under the results dir; --resume replays it
         so the merged report and counter table come out byte-identical
         to an uninterrupted run. *)
      let store =
        if no_cache then None
        else
          Some
            {
              Harness.Durable.cache =
                Harness.Cache.create ~obs ~dir:results_dir ();
              journal = "sweep.journal";
              resume;
            }
      in
      (* Deliberately unhealthy tasks: exercise the pool's quarantine
         path in-situ (CI runs this). They never finish, so they are
         never stored; they are excluded from the exit status below. *)
      let chaos_tasks =
        if not chaos then []
        else
          [
            Harness.Task.make ~key:"chaos/crash" (fun ~seed:_ ->
                failwith "chaos: deliberate crash");
            Harness.Task.make ~key:"chaos/hang" (fun ~seed:_ ->
                while true do
                  Unix.sleepf 0.05
                done;
                "unreachable");
          ]
      in
      let on_done ~completed ~total (r : string Harness.Pool.result) =
        Printf.eprintf "[%d/%d] %s (%.1f s, %s)\n%!" completed total
          r.Harness.Pool.key r.Harness.Pool.elapsed_s (Harness.Pool.status r)
      in
      let outcomes =
        Harness.Durable.run ~obs ~jobs ?timeout_s ~retries ~on_done ?store
          (List.map
             (fun (key, run) ->
               Harness.Task.make ~key (fun ~seed ->
                   Harness.Capture.text (run ~seed)))
             points
          @ chaos_tasks)
      in
      let n_points = List.length points in
      let point_outcomes = List.filteri (fun i _ -> i < n_points) outcomes in
      let summary =
        Taq_util.Table.create ~columns:[ "task"; "seconds"; "source" ]
      in
      let hits = ref 0 and misses = ref 0 and failures = ref 0 in
      let n_restored = ref 0 and n_cancelled = ref 0 in
      (* Outputs in points order, for the matrix report below. *)
      let outputs = ref [] in
      let emit output =
        outputs := output :: !outputs;
        print_string output
      in
      List.iter2
        (fun (key, _) (outcome : Harness.Durable.outcome) ->
          match outcome with
          | Restored s ->
              incr n_restored;
              emit s.Harness.Durable.payload;
              Taq_util.Table.add_row summary [ key; "-"; "journal" ]
          | Hit s ->
              incr hits;
              emit s.Harness.Durable.payload;
              Taq_util.Table.add_row summary [ key; "-"; "cache hit" ]
          | Ran r when Harness.Pool.cancelled r ->
              incr n_cancelled;
              Taq_util.Table.add_row summary [ key; "-"; "cancelled" ]
          | Ran r -> (
              match r.Harness.Pool.value with
              | Ok output ->
                  incr misses;
                  emit output;
                  Taq_util.Table.add_row summary
                    [
                      key;
                      Printf.sprintf "%.2f" r.Harness.Pool.elapsed_s;
                      "computed";
                    ]
              | Error msg ->
                  incr failures;
                  Printf.printf "%s FAILED: %s\n" key msg;
                  Taq_util.Table.add_row summary
                    [
                      key;
                      Printf.sprintf "%.2f" r.Harness.Pool.elapsed_s;
                      Harness.Pool.status r;
                    ]))
        points point_outcomes;
      (* The merged matrix report: one row per cell in matrix order,
         with the per-cell fairness and drop-rate columns parsed back
         out of the cell lines. Byte-identical at any --jobs because
         the outputs above are. *)
      if matrix then begin
        let report =
          Taq_util.Table.create
            ~columns:
              [ "disc"; "tcp"; "workload"; "fault"; "jain"; "drop_rate";
                "util"; "completed"; "rec_jain"; "rec_drop"; "rec_occ" ]
        in
        List.iter
          (fun output ->
            (* One cell per point output, so the output's resil lines
               belong to the cell parsed from the same text. *)
            let resil = Matrix.resil_of_output output in
            let recover_of metric =
              match
                List.find_opt
                  (fun kv -> List.assoc_opt "metric" kv = Some metric)
                  resil
              with
              | Some kv -> (
                  match List.assoc_opt "recover_s" kv with
                  | Some v -> v
                  | None -> "?")
              | None -> "-"
            in
            List.iter
              (fun cell ->
                let v k =
                  match List.assoc_opt k cell with Some v -> v | None -> "?"
                in
                Taq_util.Table.add_row report
                  [
                    v "disc"; v "tcp"; v "wl"; v "fault"; v "jain";
                    v "drop_rate"; v "util"; v "completed";
                    recover_of "jain"; recover_of "drop_rate";
                    recover_of "occupancy";
                  ])
              (Matrix.cells_of_output output))
          (List.rev !outputs);
        Printf.printf "\n-- matrix report (%d cell(s)) --\n\n"
          (List.length points);
        Taq_util.Table.print ~oc:stdout report
      end;
      (* Chaos tasks are reported but never gate the exit status. *)
      List.iteri
        (fun i (outcome : Harness.Durable.outcome) ->
          match outcome with
          | Ran r when i >= n_points ->
              Taq_util.Table.add_row summary
                [
                  r.Harness.Pool.key;
                  Printf.sprintf "%.2f" r.Harness.Pool.elapsed_s;
                  Printf.sprintf "chaos (%s)" (Harness.Pool.status r);
                ]
          | _ -> ())
        outcomes;
      Printf.printf "\n-- sweep summary (%d points, jobs=%d) --\n\n"
        (List.length points) jobs;
      Taq_util.Table.print ~oc:stdout summary;
      Printf.printf "\ncache: %d hits, %d misses%s%s (dir: %s)\n" !hits !misses
        (if resume then Printf.sprintf ", %d restored" !n_restored else "")
        (if no_cache then " [cache disabled]" else "")
        results_dir;
      if obs_enabled then
        (* Per-point snapshots (collected by the pool around each
           attempt, or served from the results dir) merged in input
           order, plus the root collector (instances created outside
           any task, e.g. the cache). Integer sums commute, so --jobs 4
           prints exactly what --jobs 1 prints — and a resumed or warm
           run prints exactly what a cold one would, modulo the root
           collector's own journal./cache./pool. infra counters, which
           reflect real process history. *)
        finish_obs spec
          (Obs.merge_all
             (Obs.root_snapshot ()
             :: List.map Harness.Durable.obs point_outcomes));
      if !n_cancelled > 0 then begin
        Printf.printf
          "\nsweep cancelled: %d point(s) not executed%s\n" !n_cancelled
          (if no_cache then ""
           else " — rerun with --resume to finish from the journal");
        Stdlib.exit Harness.Pool.cancelled_exit_code
      end;
      if !failures > 0 then
        `Error (false, Printf.sprintf "%d sweep point(s) failed" !failures)
      else begin
        if check_enabled then
          Printf.printf "invariant checks: clean (%d computed point(s))\n"
            !misses;
        `Ok ()
      end
  in
  let doc = "Parameter-grid sweep on a Domain worker pool (with result cache)" in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const run $ queues $ matrix $ tcps $ workloads $ fault_axis
       $ capacities $ fair_shares $ reps $ rtt $ duration $ buffer_rtts
       $ guard $ backend_arg $ bg_flows_arg $ fluid_dt_arg $ jobs_arg
       $ results_dir $ no_cache $ resume $ timeout_s $ retries $ chaos
       $ given faults_arg $ given resil_arg $ spec_term ()))

(* --- faults --------------------------------------------------------------- *)

(* Run the canonical fault-scenario registry (or one scenario) as a
   (scenario x queue) drill grid on the worker pool and assert the
   recovery properties the registry promises. Exit status is nonzero
   if any drill reports a problem. *)
let faults_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered scenarios and exit.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:"Run only this scenario (default: the whole registry).")
  in
  let queues =
    Arg.(
      value
      & opt (list (name_conv Fault_drill.disc_of_string)) [ "droptail"; "taq" ]
      & info [ "queues" ] ~docv:"QUEUES"
          ~doc:"Comma-separated disciplines to drill each scenario against.")
  in
  let run list_flag scenario queues jobs spec =
    if list_flag then begin
      List.iter
        (fun s ->
          Printf.printf "%-28s %s\n    %s\n" s.Scenarios.name
            (Fault_plan.to_string s.Scenarios.plan)
            s.Scenarios.description)
        Scenarios.all;
      `Ok ()
    end
    else
      with_spec spec @@ fun spec ->
      let scenarios =
        match scenario with
        | None -> Ok Scenarios.all
        | Some name -> (
            match Scenarios.find name with
            | Some s -> Ok [ s ]
            | None ->
                Error
                  (Printf.sprintf "unknown scenario %S (known: %s)" name
                     (String.concat ", " Scenarios.names)))
      in
      match scenarios with
      | Error msg -> `Error (false, msg)
      | Ok scenarios -> (
          try
            let tasks =
              List.concat_map
                (fun s ->
                  (* A restart-only plan injects nothing without a
                     middlebox: drill it against TAQ only. *)
                  let queues =
                    if Fault_plan.middlebox_only s.Scenarios.plan then
                      List.filter (( = ) "taq") queues
                    else queues
                  in
                  List.map
                    (fun queue ->
                      Harness.Task.make
                        ~key:(Task_key.faults ~scenario:s.Scenarios.name ~queue)
                        (fun ~seed ->
                          (* The drill rebuilds TAQ's config for its plan. *)
                          Fault_drill.run ~scenario:s.Scenarios.name
                            ~plan:s.Scenarios.plan
                            ~queue:(Common.queue_of_disc queue) ~seed ()))
                    queues)
                scenarios
            in
            Harness.Pool.install_signal_cancellation ~label:"fault drills" ();
            let results =
              Harness.Pool.run ~obs:(Run_spec.observer spec) ~jobs
                ~on_done:(fun ~completed ~total r ->
                  Printf.eprintf "[%d/%d] %s (%.1f s)\n%!" completed total
                    r.Harness.Pool.key r.Harness.Pool.elapsed_s)
                tasks
            in
            (* A SIGINT/SIGTERM mid-registry prints the drills that did
               finish and exits with the cancellation code. *)
            let finished, cancelled =
              List.partition (fun r -> not (Harness.Pool.cancelled r)) results
            in
            let outcomes = List.map Harness.Pool.value_exn finished in
            Fault_drill.print outcomes;
            if Run_spec.obs_enabled spec then
              finish_obs spec
                (Obs.merge_all
                   (Obs.root_snapshot ()
                   :: List.map
                        (fun (r : _ Harness.Pool.result) -> r.Harness.Pool.obs)
                        finished));
            if cancelled <> [] then begin
              Printf.printf
                "\nfault drills cancelled: %d drill(s) not executed\n"
                (List.length cancelled);
              Stdlib.exit Harness.Pool.cancelled_exit_code
            end;
            let bad = List.filter (fun o -> not o.Fault_drill.ok) outcomes in
            if bad <> [] then
              `Error
                (false,
                 Printf.sprintf "%d fault drill(s) failed: %s"
                   (List.length bad)
                   (String.concat "; "
                      (List.map
                         (fun o ->
                           Printf.sprintf "%s/%s (%s)" o.Fault_drill.scenario
                             o.Fault_drill.queue
                             (String.concat "; " o.Fault_drill.problems))
                         bad)))
            else begin
              if Run_spec.check_enabled spec then
                Printf.printf "invariant checks: clean (%d drill(s))\n"
                  (List.length outcomes);
              `Ok ()
            end
          with Failure msg -> `Error (false, msg))
  in
  let doc = "Run the canonical fault-scenario registry and assert recovery" in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      ret
        (const run $ list_flag $ scenario $ queues $ jobs_arg
       $ spec_term ~faults:absent ()))

(* --- model --------------------------------------------------------------- *)

let model_cmd =
  let p_arg =
    Arg.(
      value & opt (some loss_probability) None
      & info [ "p" ] ~docv:"P"
          ~doc:
            "Loss probability in [0, 0.5); prints the stationary \
             distribution.")
  in
  let wmax =
    Arg.(
      value & opt (at_least 4) 6
      & info [ "wmax" ] ~docv:"W" ~doc:"Model Wmax (at least 4).")
  in
  let full_model =
    Arg.(value & flag & info [ "full-model" ] ~doc:"Use the expanded backoff-stage model.")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ] ~doc:"Sweep p over 0.01..0.45 and print the sent-class series.")
  in
  let run p wmax full_model sweep =
    let print_dist p =
      let labels, dist, sent =
        if full_model then begin
          let m = Taq_model.Full_model.create ~wmax ~p () in
          ( Taq_model.Full_model.state_labels m,
            Taq_model.Full_model.stationary m,
            Taq_model.Full_model.sent_distribution m )
        end
        else begin
          let m = Taq_model.Partial_model.create ~wmax ~p () in
          ( Taq_model.Partial_model.state_labels m,
            Taq_model.Partial_model.stationary m,
            Taq_model.Partial_model.sent_distribution m )
        end
      in
      Printf.printf "p = %.4f (%s model, wmax=%d)\n" p
        (if full_model then "full" else "partial")
        wmax;
      Array.iteri
        (fun i l -> Printf.printf "  %-4s %.4f\n" l dist.(i))
        labels;
      Printf.printf "sent-classes:";
      Array.iteri (fun k v -> Printf.printf " %d:%.3f" k v) sent;
      print_newline ()
    in
    if sweep then begin
      let table =
        Taq_util.Table.create
          ~columns:
            [ "p"; "timeout_mass"; "silence_mass"; "goodput_pkts_per_epoch" ]
      in
      List.iter
        (fun pt ->
          Taq_util.Table.addf table
            [
              pt.Taq_model.Analysis.p;
              pt.Taq_model.Analysis.timeout_mass;
              pt.Taq_model.Analysis.silence_mass;
              pt.Taq_model.Analysis.goodput_pkts_per_epoch;
            ])
        (Taq_model.Analysis.sweep ~wmax ~full:full_model ~p_lo:0.01 ~p_hi:0.45
           ~steps:23 ());
      Taq_util.Table.print table;
      Printf.printf "\ntipping point (majority in timeout): p = %.3f\n"
        (Taq_model.Analysis.tipping_point ~wmax ());
      Printf.printf
        "expected epochs to first timeout from Wmax at p=0.1: %.1f\n"
        (Taq_model.Analysis.epochs_to_first_timeout ~wmax ~p:0.1
           ~from_window:wmax ());
      Printf.printf "steepest timeout-mass increase:      p = %.3f\n"
        (Taq_model.Analysis.steepest_increase ~wmax ())
    end;
    Option.iter print_dist p;
    if (not sweep) && p = None then print_dist 0.1
  in
  let doc = "Evaluate the idealized Markov models" in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ p_arg $ wmax $ full_model $ sweep)

(* --- replay ------------------------------------------------------------------ *)

let replay_cmd =
  let trace_path =
    Arg.(
      required & opt (some string) None
      & info [ "t"; "trace" ] ~docv:"PATH" ~doc:"Trace CSV (from the trace subcommand).")
  in
  let queue =
    Arg.(
      value
      & opt disc_conv "droptail"
      & info [ "q"; "queue" ] ~docv:"QUEUE"
          ~doc:(Printf.sprintf "Queue discipline: one of %s." disc_list))
  in
  let capacity =
    Arg.(
      value & opt positive 2000e3
      & info [ "c"; "capacity" ] ~docv:"BPS" ~doc:"Access-link capacity, bits/s.")
  in
  let duration =
    Arg.(
      value & opt positive 1800.0
      & info [ "d"; "duration" ] ~docv:"S" ~doc:"Replay window (trace clipped).")
  in
  let run trace_path queue capacity duration =
    match Taq_workload.Trace.load_csv ~path:trace_path with
    | exception Sys_error msg -> `Error (false, "cannot read " ^ msg)
    | exception Failure msg ->
        `Error (false, Printf.sprintf "%s: not a trace CSV (%s)" trace_path msg)
    | trace ->
        let p =
          {
            Fig1_scatter.default with
            Fig1_scatter.capacity_bps = capacity;
            duration;
          }
        in
        (* Replay's geometry: a buffer of one propagation RTT. *)
        let q =
          Common.queue_of_disc ~capacity_bps:capacity
            ~buffer_pkts:
              (Common.buffer_for_rtts ~capacity_bps:capacity ~rtt:p.Fig1_scatter.rtt
                 ~rtts:1.0)
            queue
        in
        Printf.printf "replaying %d records (%d clients) at %.0f bps under %s\n\n"
          (Array.length trace)
          (Array.length (Taq_workload.Trace.client_ids trace))
          capacity (Common.queue_name q);
        Fig1_scatter.print (Fig1_scatter.run_trace p ~queue:q ~trace);
        `Ok ()
  in
  let doc = "Replay a proxy access trace through a simulated access link" in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(ret (const run $ trace_path $ queue $ capacity $ duration))

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output CSV path.")
  in
  let clients =
    Arg.(
      value & opt (at_least 1) 221
      & info [ "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let duration =
    Arg.(
      value & opt positive 7200.0
      & info [ "duration" ] ~docv:"S" ~doc:"Trace window in seconds.")
  in
  let seed = Arg.(value & opt int 101 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run out clients duration seed =
    writable (Some out) @@ fun () ->
    let params =
      {
        Taq_workload.Trace.default_params with
        Taq_workload.Trace.clients;
        duration;
      }
    in
    let trace = Taq_workload.Trace.generate ~params ~seed () in
    Taq_workload.Trace.save_csv trace ~path:out;
    Printf.printf "wrote %d records (%.2f GB over %.0f s, %d clients) to %s\n"
      (Array.length trace)
      (float_of_int (Taq_workload.Trace.total_bytes trace) /. 1e9)
      (Taq_workload.Trace.duration trace)
      (Array.length (Taq_workload.Trace.client_ids trace))
      out;
    `Ok ()
  in
  let doc = "Generate a synthetic proxy access trace" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(ret (const run $ out $ clients $ duration $ seed))

(* --- mega ------------------------------------------------------------------ *)

(* The mega tier from the CLI: a million (by default) modeled
   background flows streamed out of the constant-memory cohort
   generator, sharded across the Domain pool, each shard a hybrid
   (fluid-background) environment. Counters are deterministic at any
   --jobs, which is what the CI smoke diffs. *)
let mega_cmd =
  let flows =
    Arg.(
      value & opt (at_least 1) 1_000_000
      & info [ "flows" ] ~docv:"N" ~doc:"Modeled background population.")
  in
  let shards =
    Arg.(
      value & opt (at_least 1) 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Independent sub-systems the population factors into.")
  in
  let capacity =
    Arg.(
      value & opt positive 2.4e9
      & info [ "c"; "capacity" ] ~docv:"BPS"
          ~doc:"Aggregate bottleneck capacity, split across shards.")
  in
  let fg_flows =
    Arg.(
      value & opt (at_least 0) 4
      & info [ "fg-flows" ] ~docv:"N"
          ~doc:"Packet-level foreground flows per shard.")
  in
  let rtt =
    Arg.(value & opt positive 0.2 & info [ "rtt" ] ~docv:"S" ~doc:"Base RTT.")
  in
  let duration =
    Arg.(
      value & opt positive 5.0
      & info [ "d"; "duration" ] ~docv:"S" ~doc:"Run length.")
  in
  let fluid_dt =
    Arg.(
      value & opt positive 0.05
      & info [ "fluid-dt" ] ~docv:"S" ~doc:"Fluid integration step, seconds.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Cohort seed.")
  in
  let results_dir =
    Arg.(
      value
      & opt string Harness.Cache.default_dir
      & info [ "results-dir" ] ~docv:"DIR"
          ~doc:"Directory for shard checkpoints and the mega journal.")
  in
  let do_checkpoint =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:
            "Persist every completed shard (journal + cache under \
             --results-dir) so a killed run can be finished with --resume. \
             Off by default: checkpointing is durable-run machinery, not \
             part of the plain jobs-identity contract.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a killed or cancelled mega run: replay the journal, \
             restore checkpointed shards (digests verified, hex-float \
             exact) and recompute only the missing ones. Implies \
             --checkpoint.")
  in
  let run flows shards capacity fg_flows rtt duration fluid_dt seed jobs
      results_dir do_checkpoint resume spec =
    flows_cover_shards ~flows ~shards @@ fun () ->
    with_spec spec @@ fun spec ->
    try
      let p =
        {
          Mega_tier.total_flows = flows;
          shards;
          capacity_bps = capacity;
          fg_flows;
          rtt;
          duration;
          buffer_rtts = 1.0;
          dt = fluid_dt;
          seed;
        }
      in
      let store =
        if not (do_checkpoint || resume) then None
        else begin
          Harness.Pool.install_signal_cancellation ~label:"mega run" ();
          Some
            {
              Harness.Durable.cache =
                Harness.Cache.create ~obs:(Run_spec.observer spec)
                  ~dir:results_dir ();
              journal = "mega.journal";
              resume;
            }
        end
      in
      let r = Mega_tier.run ~jobs ?store p in
      Mega_tier.print r;
      if Run_spec.check_enabled spec then
        Printf.printf "invariant checks: clean (%d shard(s))\n" shards;
      if Run_spec.obs_enabled spec then
        finish_obs spec
          (Obs.merge_all (Obs.root_snapshot () :: r.Mega_tier.obs_snaps));
      `Ok ()
    with
    | Mega_tier.Interrupted ->
        Printf.printf
          "mega run cancelled: completed shards are journaled — rerun with \
           --resume to finish\n";
        Stdlib.exit Harness.Pool.cancelled_exit_code
    | Failure msg -> `Error (false, msg)
  in
  let doc = "Million-flow hybrid tier on the Domain worker pool" in
  Cmd.v (Cmd.info "mega" ~doc)
    Term.(
      ret
        (const run $ flows $ shards $ capacity $ fg_flows $ rtt $ duration
       $ fluid_dt $ seed $ jobs_arg $ results_dir $ do_checkpoint $ resume
       $ spec_term ~faults:absent ~resil:absent ()))

let () =
  let doc = "TAQ: Timeout Aware Queuing (EuroSys'14) reproduction toolkit" in
  let info = Cmd.info "taq_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiment_cmd; sim_cmd; sweep_cmd; mega_cmd; faults_cmd;
            model_cmd; trace_cmd; replay_cmd;
          ]))

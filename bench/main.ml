(* The benchmark harness: one target per paper table/figure, printing
   the same rows/series the paper reports, plus ablation targets and a
   bechamel microbenchmark suite for the hot paths.

   Usage:
     dune exec bench/main.exe                 # every figure, quick scale
     dune exec bench/main.exe -- fig2 fig8    # selected figures
     dune exec bench/main.exe -- --full       # full-fidelity parameters
     dune exec bench/main.exe -- --jobs 4     # figures on a Domain pool
     dune exec bench/main.exe -- micro        # bechamel microbenchmarks

   Every run also writes BENCH.json: per-target wall-clock seconds plus
   the deterministic observability counters captured around each target
   (counters are on by default here; --obs=off disables them). The
   regression gate compares that document against a committed baseline:

     dune exec bench/main.exe -- --compare bench/BASELINE.json
     dune exec bench/main.exe -- --compare bench/BASELINE.json --tolerance 25
     dune exec bench/main.exe -- --write-baseline bench/BASELINE.json

   Counters must match exactly (they are deterministic under fixed
   seeds and independent of --jobs); wall-clock is only gated when a
   tolerance is supplied. *)

open Taq_experiments
module Pool = Taq_harness.Pool
module Task = Taq_harness.Task
module Obs = Taq_obs.Obs
module Regression = Taq_obs.Regression

let section title = Printf.printf "\n==== %s ====\n\n%!" title

(* --- microbenchmarks ------------------------------------------------------ *)

let micro ~full =
  section "microbenchmarks (bechamel): hot paths";
  let open Bechamel in
  let heap_bench =
    Test.make ~name:"event_heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Taq_engine.Event_heap.create () in
           for i = 0 to 99 do
             Taq_engine.Event_heap.push h
               ~time:(float_of_int (i * 7919 mod 100))
               i
           done;
           for _ = 0 to 99 do
             ignore (Taq_engine.Event_heap.pop h)
           done))
  in
  let prng_bench =
    let prng = Taq_util.Prng.create ~seed:1 in
    Test.make ~name:"prng bits64 x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Taq_util.Prng.bits64 prng)
           done))
  in
  let markov_bench =
    Test.make ~name:"partial model stationary (wmax=6)"
      (Staged.stage (fun () ->
           ignore
             (Taq_model.Partial_model.stationary
                (Taq_model.Partial_model.create ~p:0.15 ()))))
  in
  let taq_bench =
    Test.make ~name:"taq enqueue+dequeue x100"
      (Staged.stage (fun () ->
           let alloc = Taq_net.Packet.alloc () in
           let sim = Taq_engine.Sim.create () in
           let config =
             Taq_core.Taq_config.default ~capacity_pkts:50 ~capacity_bps:1e6
           in
           let t = Taq_core.Taq_disc.create ~sim ~config () in
           let d = Taq_core.Taq_disc.disc t in
           for i = 0 to 99 do
             ignore
               (d.Taq_net.Disc.enqueue
                  (Taq_net.Packet.make ~alloc ~flow:(i mod 10)
                     ~kind:Taq_net.Packet.Data ~seq:(i / 10) ~size:500
                     ~sent_at:0.0 ()));
             ignore (d.Taq_net.Disc.dequeue ())
           done))
  in
  let sim_bench =
    Test.make ~name:"tcp transfer 50 segments (end to end)"
      (Staged.stage (fun () ->
           let sim = Taq_engine.Sim.create () in
           let disc = Taq_queueing.Droptail.create ~capacity_pkts:100 in
           let net = Taq_net.Dumbbell.create ~sim ~capacity_bps:1e6 ~disc () in
           let s =
             Taq_tcp.Tcp_session.create ~net ~config:Common.default_tcp
               ~rtt_prop:0.05 ~total_segments:50 ()
           in
           Taq_tcp.Tcp_session.start s;
           Taq_engine.Sim.run ~until:30.0 sim))
  in
  let tests =
    Test.make_grouped ~name:"taq"
      [ heap_bench; prng_bench; markov_bench; taq_bench; sim_bench ]
  in
  (* [full] buys tighter estimates: more samples and a longer quota per
     benchmark (quick: 2000 runs / 0.5 s; full: 5000 runs / 2 s). *)
  let limit = if full then 5000 else 2000 in
  let quota = Time.second (if full then 2.0 else 0.5) in
  let cfg = Benchmark.cfg ~limit ~quota () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let table = Taq_util.Table.create ~columns:[ "benchmark"; "ns/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> Printf.sprintf "%.1f" x
        | Some [] | None -> "-"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Taq_util.Table.add_row table [ name; est ])
    (List.sort compare !rows);
  Taq_util.Table.print ~oc:stdout table

(* --- driver ---------------------------------------------------------------- *)

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick|--full] [--jobs N] [--check[=GROUPS]] \
     [--faults=PLAN] [--obs[=SPEC]] [--compare BASELINE.json] \
     [--tolerance PCT] [--write-baseline PATH] [TARGET...]\n\
     known targets: %s, micro\n"
    (String.concat ", " Registry.names);
  exit 2

type opts = {
  full : bool;
  jobs : int;
  names : string list;
  compare_path : string option;
  tolerance : float option;
  baseline_out : string option;
}

(* [--check[=GROUPS]], [--faults=PLAN] and [--obs[=SPEC]] make up the
   run spec, installed before any target runs. Counters are on unless
   --obs says otherwise: BENCH.json carries per-target deterministic
   counters so the regression gate has something exact to compare;
   --obs=trace:PATH buys a Chrome trace of the figure pipelines and
   --obs=off measures the true zero-instrumentation wall-clock.
   [--faults] applies its plan to every environment a figure target
   builds — handy for benchmarking figure pipelines under adverse
   conditions. *)
let parse_args args =
  let full = ref false
  and jobs = ref 1
  and names = ref []
  and check = ref None
  and faults = ref None
  and obs = ref (Some "counters")
  and compare_path = ref None
  and tolerance = ref None
  and baseline_out = ref None in
  let set_jobs n =
    match int_of_string_opt n with
    | Some n when n >= 1 -> jobs := n
    | _ -> usage ()
  in
  let set_tolerance s =
    match float_of_string_opt s with
    | Some pct when pct >= 0.0 -> tolerance := Some pct
    | _ -> usage ()
  in
  (* Flags taking a value, as --NAME=VALUE, and as --NAME VALUE too
     where marked [true]. The run-spec flags take theirs inline only,
     so [--check fig2] is bare --check plus target fig2. *)
  let valued =
    [
      ("--check", false, fun v -> check := Some v);
      ("--faults", false, fun v -> faults := Some v);
      ("--obs", false, fun v -> obs := Some v);
      ("--compare", true, fun v -> compare_path := Some v);
      ("--tolerance", true, set_tolerance);
      ("--write-baseline", true, fun v -> baseline_out := Some v);
      ("--jobs", true, set_jobs);
    ]
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        go rest
    | "--quick" :: rest ->
        full := false;
        go rest
    | "--check" :: rest ->
        check := Some "all";
        go rest
    | "--obs" :: rest ->
        obs := Some "counters";
        go rest
    | arg :: rest -> (
        let flag, value =
          match String.index_opt arg '=' with
          | Some i when i + 1 < String.length arg ->
              ( String.sub arg 0 i,
                Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
          | Some _ | None -> (arg, None)
        in
        let entry = List.find_opt (fun (f, _, _) -> f = flag) valued in
        match (entry, value, rest) with
        | Some (_, _, set), Some v, _ ->
            set v;
            go rest
        | Some (_, true, set), None, v :: rest ->
            set v;
            go rest
        | _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
        | _ ->
            names := arg :: !names;
            go rest)
  in
  go args;
  (match
     Run_spec.of_flags ?check:!check ?obs:!obs ?faults:!faults ()
   with
  | Ok spec -> Run_spec.install spec
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2);
  {
    full = !full;
    jobs = !jobs;
    names = List.rev !names;
    compare_path = !compare_path;
    tolerance = !tolerance;
    baseline_out = !baseline_out;
  }

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let full = opts.full and jobs = opts.jobs in
  let want_micro, registry_names =
    match opts.names with
    | [] -> (true, Registry.names)
    | names -> (List.mem "micro" names, List.filter (( <> ) "micro") names)
  in
  let targets =
    List.map
      (fun name ->
        match Registry.find name with
        | Some t -> t
        | None ->
            Printf.eprintf "unknown target %S (known: %s, micro)\n" name
              (String.concat ", " Registry.names);
            exit 2)
      registry_names
  in
  Printf.printf "TAQ benchmark harness (%s scale, jobs=%d)\n"
    (if full then "full" else "quick")
    jobs;
  (* Figure targets run as harness tasks: each captures its own output
     (so a parallel pool never interleaves text) and reports per-task
     wall-clock time. jobs=1 is the plain in-process sequential path. *)
  let tasks =
    List.map
      (fun t ->
        Task.make ~key:t.Registry.name (fun ~seed:_ ->
            Registry.capture t ~full))
      targets
  in
  let results =
    Pool.run ~jobs
      ~on_done:(fun ~completed ~total r ->
        if jobs > 1 then
          Printf.eprintf "[%d/%d] %s (%.1f s)\n%!" completed total r.Pool.key
            r.Pool.elapsed_s)
      tasks
  in
  let bench_targets = ref [] in
  List.iter2
    (fun t r ->
      section (Printf.sprintf "%s: %s" t.Registry.name t.Registry.description);
      (match r.Pool.value with
      | Ok outcome -> print_string outcome.Registry.output
      | Error msg -> Printf.printf "TARGET FAILED: %s\n" msg);
      Printf.printf "\n[%.1f s]\n%!" r.Pool.elapsed_s;
      bench_targets :=
        Regression.make_target ~name:t.Registry.name ~seconds:r.Pool.elapsed_s
          ~snapshot:r.Pool.obs
        :: !bench_targets)
    targets results;
  if want_micro then begin
    let t0 = Unix.gettimeofday () in
    micro ~full;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "\n[%.1f s]\n%!" dt;
    (* The micro target carries no counters: bechamel picks its own
       iteration counts adaptively, so any counters it touched would be
       nondeterministic and break the exact-match gate. *)
    bench_targets :=
      Regression.make_target ~name:"micro" ~seconds:dt
        ~snapshot:Obs.empty_snapshot
      :: !bench_targets
  end;
  let bench =
    {
      Regression.scale = (if full then "full" else "quick");
      jobs;
      targets = List.rev !bench_targets;
    }
  in
  Regression.save ~path:"BENCH.json" bench;
  Printf.printf "\nwrote BENCH.json (%d targets)\n%!"
    (List.length bench.Regression.targets);
  (match opts.baseline_out with
  | None -> ()
  | Some path ->
      Regression.save ~path bench;
      Printf.printf "wrote %s (baseline)\n%!" path);
  (* A Chrome trace, when --obs=trace:PATH asked for one: merge every
     target's ring with whatever the main domain traced. *)
  (match Run_spec.trace_path (Run_spec.current ()) with
  | None -> ()
  | Some path ->
      let merged =
        Obs.merge_all
          (Obs.root_snapshot () :: List.map (fun r -> r.Pool.obs) results)
      in
      Taq_obs.Trace.write_file ~path merged.Obs.events;
      Printf.printf "wrote %s (%d trace events)\n%!" path
        (List.length merged.Obs.events));
  match opts.compare_path with
  | None -> ()
  | Some baseline_path -> (
      match
        Regression.compare_files ?tolerance_pct:opts.tolerance ~baseline_path
          ~current_path:"BENCH.json" ()
      with
      | Ok notes ->
          Printf.printf "\nbench gate vs %s: PASS\n" baseline_path;
          List.iter (fun n -> Printf.printf "  %s\n" n) notes
      | Error failures ->
          Printf.printf "\nbench gate vs %s: FAIL\n" baseline_path;
          List.iter (fun f -> Printf.printf "  %s\n" f) failures;
          exit 1)

(* The benchmark harness: one target per paper table/figure, printing
   the same rows/series the paper reports, plus ablation targets.

   Usage:
     dune exec bench/main.exe                 # every figure, quick scale
     dune exec bench/main.exe -- fig2 fig8    # selected figures
     dune exec bench/main.exe -- --full       # full-fidelity parameters
     dune exec bench/main.exe -- --jobs 4     # figures on a Domain pool

   Every run also writes BENCH.json: the deterministic observability
   counters and gauges captured around each target (counters are on by
   default here; --obs=off disables them). The regression gate compares
   that document against a committed baseline:

     dune exec bench/main.exe -- --compare bench/BASELINE.json
     dune exec bench/main.exe -- --write-baseline bench/BASELINE.json

   Counters must match exactly: they are deterministic under fixed
   seeds and independent of --jobs, so the document is too. Host time
   is measured by bench/perf, the repository's performance benchmark. *)

open Taq_experiments
module Pool = Taq_harness.Pool
module Task = Taq_harness.Task
module Obs = Taq_obs.Obs
module Regression = Taq_obs.Regression

let section title = Printf.printf "\n==== %s ====\n\n%!" title

(* --- driver ---------------------------------------------------------------- *)

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick|--full] [--jobs N] [--check[=GROUPS]] \
     [--faults=PLAN] [--obs[=SPEC]] [--compare BASELINE.json] \
     [--write-baseline PATH] [TARGET...]\n\
     known targets: %s\n"
    (String.concat ", " Registry.names);
  exit 2

type opts = {
  full : bool;
  jobs : int;
  names : string list;
  compare_path : string option;
  baseline_out : string option;
}

(* [--check[=GROUPS]], [--faults=PLAN] and [--obs[=SPEC]] make up the
   run spec, installed before any target runs. Counters are on unless
   --obs says otherwise: BENCH.json carries per-target deterministic
   counters so the regression gate has something exact to compare;
   --obs=trace:PATH buys a Chrome trace of the figure pipelines.
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
  and baseline_out = ref None in
  let set_jobs n =
    match int_of_string_opt n with
    | Some n when n >= 1 -> jobs := n
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
    baseline_out = !baseline_out;
  }

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let full = opts.full and jobs = opts.jobs in
  let targets =
    List.map
      (fun name ->
        match Registry.find name with
        | Some t -> t
        | None ->
            Printf.eprintf "unknown target %S (known: %s)\n" name
              (String.concat ", " Registry.names);
            exit 2)
      (match opts.names with [] -> Registry.names | names -> names)
  in
  Printf.printf "TAQ benchmark harness (%s scale, jobs=%d)\n"
    (if full then "full" else "quick")
    jobs;
  (* Figure targets run as harness tasks: each captures its own output
     (so a parallel pool never interleaves text) and its counters.
     jobs=1 is the plain in-process sequential path. *)
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
  let bench_targets =
    List.map2
      (fun t r ->
        section
          (Printf.sprintf "%s: %s" t.Registry.name t.Registry.description);
        (match r.Pool.value with
        | Ok outcome -> print_string outcome.Registry.output
        | Error msg -> Printf.printf "TARGET FAILED: %s\n" msg);
        Printf.printf "\n[%.1f s]\n%!" r.Pool.elapsed_s;
        Regression.make_target ~name:t.Registry.name ~snapshot:r.Pool.obs)
      targets results
  in
  let bench =
    {
      Regression.scale = (if full then "full" else "quick");
      targets = bench_targets;
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
        Regression.compare_files ~baseline_path ~current_path:"BENCH.json"
      with
      | Ok notes ->
          Printf.printf "\nbench gate vs %s: PASS\n" baseline_path;
          List.iter (fun n -> Printf.printf "  %s\n" n) notes
      | Error failures ->
          Printf.printf "\nbench gate vs %s: FAIL\n" baseline_path;
          List.iter (fun f -> Printf.printf "  %s\n" f) failures;
          exit 1)

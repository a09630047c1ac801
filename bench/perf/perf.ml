(* The repository's performance benchmark: five workloads, each run in
   fresh child processes, one at a time.

   Usage:
     dune exec bench/perf/perf.exe -- [--workload W]... [--seed S]
       [--seconds N] [--trace 0|1]

   Each pass runs a workload's points in a fresh child process. A plain
   pass gives the end-to-end metrics; a traced pass times every layer
   boundary and gives the per-layer metrics. Without --trace both are
   run; --trace 0 runs plain passes only, --trace 1 the passes the
   per-layer metrics need. With --seconds N, passes are repeated while
   they fit in N seconds and host-timed metrics are the median over
   passes. The last line of output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   and the exit code is non-zero when any output check failed.

     dune exec bench/perf/perf.exe -- --smoke BENCHMARK.json

   runs each workload's first point at a tenth of its horizon and also
   checks that BENCHMARK.json declares exactly the workloads and
   metrics printed. See README.md. *)

module Json = Taq_obs.Json

type mode = Plain | Traced | Flipped

let mode_name = function
  | Plain -> "plain"
  | Traced -> "traced"
  | Flipped -> "flipped"

let mode_of_name = function
  | "plain" -> Some Plain
  | "traced" -> Some Traced
  | "flipped" -> Some Flipped
  | _ -> None

let e2e_metrics =
  [
    ("pkts_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_words_per_pkt", "words");
    ("peak_heap_mb", "MiB");
    ("jain_short", "ratio");
    ("fct_p50_s", "s");
    ("fct_p99_s", "s");
  ]

let layer_metrics =
  [
    ("engine.events_per_pkt", "events/pkt");
    ("engine.heap_max_depth", "count");
    ("engine.self_ns_per_event", "ns");
    ("net.drop_frac", "ratio");
    ("net.utilization", "ratio");
    ("disc.enqueue_ns", "ns");
    ("disc.enqueue_p99_ns", "ns");
    ("disc.dequeue_ns", "ns");
    ("disc.share", "ratio");
    ("core.tracker.observe_ns", "ns");
    ("core.tracker.tick_ns", "ns");
    ("core.tracker.flows_per_tick", "count");
    ("core.other_enqueue_ns", "ns");
    ("core.admission_reject_frac", "ratio");
    ("core.transitions_per_pkt", "1/pkt");
    ("obs.cost_frac", "ratio");
    ("tcp.ack_ns", "ns");
    ("tcp.rx_ns", "ns");
    ("tcp.retx_frac", "ratio");
    ("metrics.record_ns", "ns");
    ("gc.promoted_words_per_pkt", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- child: one pass over a workload's points ------------------------ *)

let pass_values (pass : Scenario.pass) ~counters ~top_heap_words =
  let f = float_of_int in
  let offered = f pass.offered in
  let base =
    [
      ("run_s", pass.run_s);
      ("pkts_per_s", ratio offered pass.run_s);
      ("pkts_per_s_raw", ratio offered pass.run_raw_s);
      ("reference_ms", Calib.median_ms pass.clock);
      ("setup_s", pass.setup_s);
      ("alloc_words_per_pkt", ratio pass.minor_words offered);
      ("peak_heap_mb", f top_heap_words *. f (Sys.word_size / 8) /. 1048576.0);
      ("jain_short", ratio pass.jain_sum (f pass.ok));
      (* Completion times span an order of magnitude across a grid's
         fair shares: a geometric mean weighs every point alike. *)
      ("fct_p50_s", exp (ratio pass.fct_log_p50_sum (f pass.ok)));
      ("fct_p99_s", exp (ratio pass.fct_log_p99_sum (f pass.ok)));
      ("fct_n", f pass.fct_n);
      ("fct_unfinished", f pass.fct_unfinished);
      ("gc.promoted_words_per_pkt", ratio pass.promoted_words offered);
      ("gc.major_collections", f pass.major_collections);
    ]
  in
  let transitions =
    if counters then
      [ ("core.transitions_per_pkt", ratio (f pass.transitions) offered) ]
    else []
  in
  let layers =
    match pass.probe with
    | None -> []
    | Some probe ->
        (* Span times are host nanoseconds; this scales them to
           reference nanoseconds, like the run time. *)
        let scale = ratio pass.run_s pass.run_raw_s in
        let total l = f probe.Probe.total_ns.(Probe.index l) *. scale
        and self l = f probe.Probe.self_ns.(Probe.index l) *. scale
        and calls l = f probe.Probe.calls.(Probe.index l) in
        let run_ns = pass.run_s *. 1e9 in
        let disc_ns = total Probe.Enqueue +. total Probe.Dequeue in
        [
          ("engine.events_per_pkt", ratio (f pass.events) offered);
          ("engine.heap_max_depth", f pass.heap_max_depth);
          ( "engine.self_ns_per_event",
            ratio
              (run_ns -. (f probe.Probe.top_ns *. scale))
              (f pass.events) );
          ("net.drop_frac", ratio (f pass.dropped) offered);
          ("net.utilization", ratio pass.utilization_sum (f pass.ok));
          ( "disc.enqueue_ns",
            ratio (total Probe.Enqueue) (calls Probe.Enqueue) );
          ( "disc.enqueue_p99_ns",
            Probe.enqueue_quantile_ns probe 0.99 *. scale );
          ( "disc.dequeue_ns",
            ratio (total Probe.Dequeue) (calls Probe.Dequeue) );
          ("disc.share", ratio disc_ns run_ns);
          ( "core.tracker.observe_ns",
            ratio (f pass.observe_ns *. scale) (f pass.observes) );
          ( "core.tracker.tick_ns",
            ratio (f pass.tick_ns *. scale) (f pass.ticks) );
          ( "core.tracker.flows_per_tick",
            ratio (f pass.tick_flows) (f pass.ticks) );
          ( "core.other_enqueue_ns",
            ratio
              (total Probe.Enqueue -. (f pass.live_tracker_ns *. scale))
              (calls Probe.Enqueue) );
          ( "core.admission_reject_frac",
            ratio (f pass.admission_rejected) (f pass.syns) );
          ("tcp.ack_ns", ratio (self Probe.Ack) (calls Probe.Ack));
          ("tcp.rx_ns", ratio (self Probe.Rx) (calls Probe.Rx));
          ("tcp.retx_frac", ratio (f pass.retx) (f pass.data));
          ( "metrics.record_ns",
            ratio (total Probe.Metrics) (calls Probe.Metrics) );
        ]
  in
  base @ transitions @ layers

let num x = if Float.is_finite x then Json.Num x else Json.Null

(* The smoke run takes each workload's first point at a tenth of its
   horizon, in a few slices: it checks outputs, not timings. *)
let points (w : Scenario.workload) ~seed ~smoke =
  match smoke with
  | None -> w.points ~seed ~scale:1.0
  | Some _ -> [ { (List.hd (w.points ~seed ~scale:0.1)) with slices = 4 } ]

let child (w : Scenario.workload) ~seed ~smoke mode =
  let pass = Scenario.new_pass ~traced:(mode = Traced) in
  let counters = w.counters <> (mode = Flipped) in
  List.iter
    (fun (p : Scenario.point) ->
      try Scenario.run_point pass ~counters p
      with e ->
        pass.points <-
          (p.label, "-", Some (Printexc.to_string e)) :: pass.points)
    (points w ~seed ~smoke);
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Option.iter
    (fun probe ->
      Taq_obs.Trace.write_file
        ~path:(Printf.sprintf "perf.%s.trace.json" w.name)
        (Taq_obs.Trace.events probe.Probe.trace))
    pass.probe;
  let points =
    List.rev_map
      (fun (label, digest, error) ->
        Json.Obj
          [
            ("label", Json.Str label);
            ("digest", Json.Str digest);
            ( "error",
              match error with None -> Json.Null | Some e -> Json.Str e );
          ])
      pass.points
  in
  let values =
    List.map
      (fun (k, v) -> (k, num v))
      (pass_values pass ~counters ~top_heap_words)
  in
  print_endline
    (Json.to_string
       (Json.Obj [ ("points", Json.List points); ("values", Json.Obj values) ]))

(* --- parent: schedule passes, check and aggregate them ---------------- *)

let seconds_since t0 = float_of_int (Probe.now_ns () - t0) /. 1e9

type pass_result = {
  mode : mode;
  points : (string * string * string option) list;
  values : (string * float) list;
}

(* The child's environment without the GC settings of the caller's
   shell, so heap and allocation figures do not depend on it. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
       (Array.to_list (Unix.environment ())))

let parse_child mode out =
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  let ( let* ) = Option.bind in
  let* doc = Result.to_option (Json.of_string last) in
  let* points = Option.bind (Json.member "points" doc) Json.to_list in
  let* values = Json.member "values" doc in
  let point j =
    let str k = Option.bind (Json.member k j) Json.to_str in
    ( Option.value (str "label") ~default:"?",
      Option.value (str "digest") ~default:"-",
      match Json.member "error" j with
      | Some Json.Null | None -> None
      | Some _ -> Some (Option.value (str "error") ~default:"?") )
  in
  let values =
    match values with
    | Json.Obj kvs ->
        List.map
          (fun (k, v) -> (k, Option.value (Json.to_float v) ~default:nan))
          kvs
    | _ -> []
  in
  Some { mode; points = List.map point points; values }

let run_child (w : Scenario.workload) ~seed ~smoke mode =
  let exe = Sys.executable_name in
  let args =
    Array.of_list
      ([ exe; "--child"; mode_name mode; "--workload"; w.name; "--seed";
         string_of_int seed ]
      @ match smoke with Some path -> [ "--smoke"; path ] | None -> [])
  in
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe args (child_env ()) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> parse_child mode out
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None

(* Passes run one at a time. The first round always runs; further
   rounds only while they fit in [seconds]. *)
let run_passes w ~seed ~smoke ~seconds ~modes ~first_round =
  let t0 = Probe.now_ns () in
  let results = ref [] in
  let round modes =
    let start = Probe.now_ns () in
    List.iter
      (fun mode -> results := (mode, run_child w ~seed ~smoke mode) :: !results)
      modes;
    seconds_since start
  in
  let rec repeat last =
    if seconds_since t0 +. last <= seconds then repeat (round modes)
  in
  ignore (round first_round);
  repeat (round modes);
  List.rev !results

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_of passes ~mode key =
  median
    (List.filter_map
       (fun r -> if r.mode = mode then List.assoc_opt key r.values else None)
       passes)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let run_workload (w : Scenario.workload) ~seed ~smoke ~seconds ~e2e ~layers =
  let start = Probe.now_ns () in
  let expected = List.length (points w ~seed ~smoke) in
  let modes, first_round =
    if layers then ([ Plain; Traced ], [ Flipped ]) else ([ Plain ], [])
  in
  let results = run_passes w ~seed ~smoke ~seconds ~modes ~first_round in
  let passes = List.filter_map snd results in
  (* Every pass must reproduce every point's digest. *)
  let reference = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (label, digest, error) ->
          if error = None && not (Hashtbl.mem reference label) then
            Hashtbl.replace reference label digest)
        r.points)
    passes;
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (mode, r) ->
      attempted := !attempted + expected;
      match r with
      | None ->
          failed := !failed + expected;
          Printf.printf "  %s pass: child process failed\n" (mode_name mode)
      | Some r ->
          failed := !failed + expected - List.length r.points;
          List.iter
            (fun (label, digest, error) ->
              match error with
              | Some e ->
                  incr failed;
                  Printf.printf "  %s pass: point %s failed: %s\n"
                    (mode_name mode) label e
              | None ->
                  if Hashtbl.find reference label <> digest then begin
                    incr failed;
                    Printf.printf "  %s pass: point %s digest %s <> %s\n"
                      (mode_name mode) label digest
                      (Hashtbl.find reference label)
                  end)
            r.points)
    results;
  let count mode = List.length (List.filter (fun r -> r.mode = mode) passes) in
  Printf.printf
    "workload %s seed %d: %d plain, %d traced, %d flipped passes, %.1f s\n"
    w.name seed (count Plain) (count Traced) (count Flipped)
    (seconds_since start);
  Hashtbl.fold (fun label digest acc -> (label, digest) :: acc) reference []
  |> List.sort compare
  |> List.iter (fun (label, digest) ->
         Printf.printf "  point %-18s digest %s\n" label digest);
  let run_s mode = median_of passes ~mode "run_s" in
  let derived = function
    | "trace.overhead_frac" -> Some ((run_s Traced /. run_s Plain) -. 1.0)
    | "obs.cost_frac" ->
        let on, off =
          if w.counters then (run_s Plain, run_s Flipped)
          else (run_s Flipped, run_s Plain)
        in
        Some ((on /. off) -. 1.0)
    | "core.transitions_per_pkt" ->
        Some
          (median_of passes
             ~mode:(if w.counters then Plain else Flipped)
             "core.transitions_per_pkt")
    | _ -> None
  in
  let metric ~mode (name, unit_) =
    let value =
      match derived name with
      | Some v -> v
      | None -> median_of passes ~mode name
    in
    (name, value, unit_)
  in
  let layer ((name, _) as m) =
    let gc = String.starts_with ~prefix:"gc." name in
    metric ~mode:(if gc then Plain else Traced) m
  in
  let metrics =
    (if e2e then List.map (metric ~mode:Plain) e2e_metrics else [])
    @ if layers then List.map layer layer_metrics else []
  in
  List.iter
    (fun (name, value, unit_) ->
      Printf.printf "  %-28s %16.6f %s\n" name value unit_)
    metrics;
  if e2e then begin
    let info key = median_of passes ~mode:Plain key in
    Printf.printf "  %-28s %16.0f samples, %.0f unfinished\n" "fct_n"
      (info "fct_n") (info "fct_unfinished");
    Printf.printf "  %-28s %16.6f 1/s host time, reference median %.3f ms\n"
      "pkts_per_s_raw" (info "pkts_per_s_raw") (info "reference_ms")
  end;
  { attempted = !attempted; failed = !failed; metrics }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit_) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value)
      unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* BENCHMARK.json must declare exactly the workloads (with their
   reasons) and the metric names and units printed here. *)
let check_declared path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc =
    match Json.of_string text with
    | Ok doc -> doc
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let same section field printed =
    let declared =
      Option.bind (Json.member section doc) Json.to_list
      |> Option.value ~default:[]
      |> List.map (fun j ->
             let get k =
               Option.value ~default:""
                 (Option.bind (Json.member k j) Json.to_str)
             in
             (get "name", get field))
    in
    let ok = List.sort compare declared = List.sort compare printed in
    if not ok then
      Printf.printf "smoke: %s in %s differ from the benchmark's\n" section
        path;
    ok
  in
  let workloads =
    List.map (fun (w : Scenario.workload) -> (w.name, w.why)) Scenario.workloads
  in
  List.for_all Fun.id
    [
      same "workloads" "why" workloads;
      same "end_to_end" "unit" e2e_metrics;
      same "per_layer" "unit" layer_metrics;
    ]

let usage =
  "perf.exe [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--smoke \
   BENCHMARK.json]"

let usage_error msg =
  prerr_endline ("perf: " ^ msg ^ "\nusage: " ^ usage);
  exit 2

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 0.0 in
  let trace = ref None and smoke = ref None and child_mode = ref None in
  let value flag parse s =
    match parse s with
    | Some v -> v
    | None -> usage_error (Printf.sprintf "bad value %S for %s" s flag)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workloads := value "--workload" Scenario.find w :: !workloads;
        parse rest
    | "--seed" :: s :: rest ->
        seed := value "--seed" int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := value "--seconds" float_of_string_opt s;
        parse rest
    | "--trace" :: t :: rest ->
        let flag = function "0" -> Some false | "1" -> Some true | _ -> None in
        trace := Some (value "--trace" flag t);
        parse rest
    | "--smoke" :: path :: rest ->
        smoke := Some path;
        parse rest
    | "--child" :: m :: rest ->
        child_mode := Some (value "--child" mode_of_name m);
        parse rest
    | arg :: _ -> usage_error ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !workloads with [] -> Scenario.workloads | ws -> ws
  in
  match !child_mode with
  | Some mode -> child (List.hd selected) ~seed:!seed ~smoke:!smoke mode
  | None ->
      let e2e = !trace <> Some true and layers = !trace <> Some false in
      let outcomes =
        List.map
          (fun w ->
            ( w,
              run_workload w ~seed:!seed ~smoke:!smoke ~seconds:!seconds ~e2e
                ~layers ))
          selected
      in
      let total f = List.fold_left (fun a (_, o) -> a + f o) 0 outcomes in
      let attempted = total (fun o -> o.attempted)
      and failed = total (fun o -> o.failed) in
      let metrics =
        match outcomes with
        | [ (_, o) ] -> o.metrics
        | _ ->
            List.concat_map
              (fun ((w : Scenario.workload), o) ->
                List.map (fun (n, v, u) -> (w.name ^ "/" ^ n, v, u)) o.metrics)
              outcomes
      in
      let declared =
        match !smoke with Some path -> check_declared path | None -> true
      in
      let correct = failed = 0 && declared in
      print_endline (result_line ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)

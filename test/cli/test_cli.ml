(* The CLI reports a bad input as a usage error: exit 124 (cmdliner's
   code) with a message naming the flag or the path. An input that the
   library would reject by raising (exit 125), or a path that the run
   cannot write, is caught before any simulation starts, so a rejected
   run prints nothing on stdout.

   Each case runs the built bin/taq_sim.exe, found relative to this
   test in dune's build tree, with stdout and stderr sent to temporary
   files. The accepting cases check that the up-front checks let a good
   input through, that an output file opened early to test the path is
   still written in full, that [experiment] prints the same bytes at
   any --jobs, and that [sweep] serves what a results dir holds. *)

let bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/taq_sim.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every temporary file is removed when the test exits. *)
let temp_file suffix =
  let path = Filename.temp_file "taq_cli" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* A fresh directory, removed with the files in it when the test
   exits. *)
let temp_dir () =
  let dir = Filename.temp_dir "taq_cli" "" in
  at_exit (fun () ->
      (try
         Array.iter
           (fun f ->
             try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ());
  dir

(* A path under a regular file: no run can create it. *)
let unwritable name = Filename.concat (temp_file ".file") name

type outcome = { code : int; out : string; err : string }

let run args =
  let out = temp_file ".out" and err = temp_file ".err" in
  let code =
    Sys.command (Filename.quote_command bin ~stdout:out ~stderr:err args)
  in
  { code; out = read_file out; err = read_file err }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The part of [s] before the first [sub], or all of [s]. *)
let before s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then s else if String.sub s i m = sub then String.sub s 0 i
    else at (i + 1)
  in
  at 0

let rejects ~want args =
  let r = run args in
  Alcotest.(check int) "exit code" 124 r.code;
  if not (contains r.err want) then
    Alcotest.failf "stderr lacks %S:\n%s" want r.err;
  Alcotest.(check string) "nothing ran" "" r.out

let accepts args =
  let r = run args in
  if r.code <> 0 then Alcotest.failf "exit %d:\n%s" r.code r.err;
  r.out

let starts_with ~prefix s =
  if not (String.starts_with ~prefix s) then
    Alcotest.failf "expected a file starting %S, got %S" prefix
      (String.sub s 0 (min 80 (String.length s)))

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* --- model -p: both models are defined on [0, 0.5) --------------------- *)

let bad_p = "option '-p': expected a probability in [0, 0.5)"

let test_p_half () = rejects ~want:bad_p [ "model"; "-p"; "0.5" ]
let test_p_above () = rejects ~want:bad_p [ "model"; "-p"; "1.5" ]
let test_p_negative () = rejects ~want:bad_p [ "model"; "-p-0.1" ]

let test_p_nan () =
  rejects ~want:"option '-p': expected a finite number" [ "model"; "-p"; "nan" ]

let test_p_full_model () =
  rejects ~want:bad_p [ "model"; "--full-model"; "-p"; "0.6" ]

let test_p_zero () =
  let out = accepts [ "model"; "-p"; "0" ] in
  starts_with ~prefix:"p = 0.0000 (partial model" out

let test_p_full_model_inside () =
  let out = accepts [ "model"; "--full-model"; "-p"; "0.45" ] in
  starts_with ~prefix:"p = 0.4500 (full model" out

(* --- sim -n: a run needs a flow ---------------------------------------- *)

(* With no flows the dumbbell stays empty: the run would print a Jain
   of 1 and a utilization of 0 and exit 0. *)
let test_sim_no_flows () =
  rejects ~want:"option '--flows': expected an integer >= 1, got \"0\""
    [ "sim"; "--flows"; "0"; "-d"; "30" ]

(* The group column of a --check report, in the order printed. *)
let check_groups out =
  List.filter_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | group :: _ :: "checks" :: _ -> Some group
      | _ -> None)
    (lines out)

let test_sim_check_report () =
  let out = accepts [ "sim"; "--flows"; "4"; "-d"; "2"; "--check" ] in
  starts_with
    ~prefix:"queue=droptail backend=packet capacity=600000bps flows=4 " out;
  Alcotest.(check (list string)) "every group, then the total"
    [ "engine"; "net"; "queueing"; "tcp"; "core"; "guard"; "resil"; "total" ]
    (check_groups out)

(* --- one traffic path: the fluid background's options are gone ---------- *)

let test_no_mega () =
  rejects ~want:"unknown command 'mega'" [ "mega"; "-d"; "1" ]

let test_no_backend () =
  rejects ~want:"unknown option '--backend'"
    [ "sim"; "--backend=hybrid"; "-d"; "2" ]

let test_no_bg_flows () =
  rejects ~want:"unknown option '--bg-flows'"
    [ "sim"; "--bg-flows"; "4"; "-d"; "2" ]

let test_no_fluid_dt () =
  rejects ~want:"unknown option '--fluid-dt'"
    [ "sweep"; "--fluid-dt"; "0.01"; "-d"; "2"; "--no-cache" ]

let test_no_fluid_check () =
  rejects
    ~want:"unknown check group \"fluid\" (expected all, engine, net, \
           queueing, tcp, core, guard, resil)"
    [ "sim"; "--check=fluid"; "-d"; "2" ]

(* --- --resil is a flag --------------------------------------------------- *)

(* The SLOs are constants, so a value given to --resil is a usage
   error on every subcommand that takes the flag. cmdliner wraps its
   message at 80 columns: blanks are squashed before comparing. *)
let squash s =
  String.map (function '\n' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> String.concat " "

let resil_value args () =
  let r = run (args @ [ "--resil=period=0.25" ]) in
  Alcotest.(check int) "exit code" 124 r.code;
  let want =
    "option '--resil' is a flag, it cannot take the argument 'period=0.25'"
  in
  if not (contains (squash r.err) want) then
    Alcotest.failf "stderr lacks %S:\n%s" want r.err;
  Alcotest.(check string) "nothing ran" "" r.out

let test_sim_bare_resil () =
  let out = accepts [ "sim"; "--flows"; "4"; "-d"; "2"; "--resil" ] in
  Alcotest.(check bool) "resilience rows printed" true
    (contains out "\n  resil metric=jain ")

(* --- experiment -------------------------------------------------------- *)

let test_experiment_unknown () =
  rejects ~want:"unknown experiment \"nope\" (known: fig1, fig2,"
    [ "experiment"; "fig2"; "nope" ]

let test_experiment_jobs_zero () =
  rejects ~want:"option '--jobs': expected an integer >= 1"
    [ "experiment"; "fig9"; "--jobs"; "0" ]

let test_experiment_bad_check () =
  rejects ~want:"unknown check group \"bogus\""
    [ "experiment"; "fig2"; "--check=bogus" ]

(* --check and --obs take an optional value, so a target name after
   either becomes that value; the message shows the orders that work. *)
let test_experiment_check_takes_target () =
  rejects ~want:"--check took the next word, \"fig2\", as its value: write \
                 experiment fig2 --check, or --check=GROUPS"
    [ "experiment"; "--check"; "fig2" ]

let test_experiment_obs_takes_target () =
  rejects ~want:"--obs took the next word, \"fig2\", as its value: write \
                 experiment fig2 --obs, or --obs=SPEC"
    [ "experiment"; "--obs"; "fig2" ]

(* Each target captures its own output, so the worker count cannot
   change what prints, nor its order. *)
let test_experiment_jobs_identical () =
  let at jobs = accepts [ "experiment"; "fig9"; "http"; "--jobs"; jobs ] in
  let one = at "1" in
  Alcotest.(check bool) "printed both targets" true (contains one "==== http");
  Alcotest.(check string) "jobs 2 prints what jobs 1 prints" one (at "2")

(* --- output paths are checked before the run -------------------------- *)

let cannot_write path = "cannot write " ^ path

let test_trace_out () =
  let path = unwritable "t.csv" in
  rejects ~want:(cannot_write path)
    [ "trace"; "-o"; path; "--duration"; "5" ]

let test_sim_pcap () =
  let path = unwritable "x.csv" in
  rejects ~want:(cannot_write path) [ "sim"; "-d"; "2"; "--pcap"; path ]

let test_sim_obs_trace () =
  let path = unwritable "t.json" in
  rejects ~want:(cannot_write path)
    [ "sim"; "-d"; "2"; "--obs=trace:" ^ path ]

(* --obs is parsed in one place, so every subcommand checks the path. *)
let test_sweep_obs_trace () =
  let path = unwritable "t.json" in
  rejects ~want:(cannot_write path)
    [ "sweep"; "-d"; "2"; "--no-cache"; "--obs=trace:" ^ path ]

let test_experiment_obs_trace () =
  let path = unwritable "t.json" in
  rejects ~want:(cannot_write path)
    [ "experiment"; "fig2"; "--obs=trace:" ^ path ]

(* --- replay -t --------------------------------------------------------- *)

let test_replay_missing () =
  let path = unwritable "t.csv" in
  rejects ~want:("cannot read " ^ path) [ "replay"; "-t"; path ]

let test_replay_malformed () =
  let path = temp_file ".csv" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not,a,trace\n");
  rejects ~want:(path ^ ": not a trace CSV") [ "replay"; "-t"; path ]

(* --- writable paths are written in full ------------------------------- *)

let test_trace_replay () =
  let path = temp_file ".csv" in
  ignore (accepts [ "trace"; "-o"; path; "--duration"; "5" ]);
  let csv = read_file path in
  starts_with ~prefix:"time,client,size\n" csv;
  Alcotest.(check bool) "records written" true (List.length (lines csv) > 1);
  let out = accepts [ "replay"; "-t"; path; "-d"; "5" ] in
  starts_with ~prefix:"replaying " out

let test_sim_pcap_written () =
  let path = temp_file ".csv" in
  ignore (accepts [ "sim"; "-d"; "2"; "--pcap"; path ]);
  let log = read_file path in
  starts_with ~prefix:"time,event,packet_kind,flow,seq,size\n" log;
  Alcotest.(check bool) "events written" true (List.length (lines log) > 1)

let test_sim_obs_trace_written () =
  let path = temp_file ".json" in
  ignore (accepts [ "sim"; "-d"; "2"; "--obs=trace:" ^ path ]);
  let json = read_file path in
  starts_with ~prefix:"{\"traceEvents\":[{" json

(* --- sweep: one attempt per point ---------------------------------------- *)

(* A point is a deterministic function of its key, so a deadline or a
   retry would fail or hang the same way again: neither flag exists. *)
let test_sweep_no_timeout () =
  rejects ~want:"unknown option '--timeout-s'"
    [ "sweep"; "--timeout-s"; "15"; "-d"; "3"; "--no-cache" ]

let test_sweep_no_retries () =
  rejects ~want:"unknown option '--retries'"
    [ "sweep"; "--retries"; "1"; "-d"; "3"; "--no-cache" ]

(* --- sweep: each mode reads its own flags ------------------------------- *)

(* A flag the chosen mode would ignore is rejected by the name it was
   given under, whatever its value: a default value counts. *)
let axis_only flag value =
  rejects
    ~want:(flag ^ " is a matrix axis; it requires --matrix")
    [ "sweep"; flag; value; "-d"; "3"; "--no-cache" ]

let test_sweep_tcps_needs_matrix () = axis_only "--tcps" "sack"
let test_sweep_workloads_needs_matrix () = axis_only "--workloads" "mice"

let test_sweep_fault_axis_needs_matrix () =
  axis_only "--fault-axis" "none,flap,flood"

let grid_only flag value =
  rejects
    ~want:
      (flag
     ^ " is a classic-grid flag; --matrix cells run at a fixed scale and \
        would ignore it")
    [ "sweep"; "--matrix"; flag; value; "--no-cache" ]

let test_matrix_capacities () = grid_only "--capacities" "1e6"
let test_matrix_fair_shares () = grid_only "--fair-shares" "5e3"
let test_matrix_reps () = grid_only "--reps" "3"
let test_matrix_rtt () = grid_only "--rtt" "0.3"
let test_matrix_duration () = grid_only "-d" "7"
let test_matrix_buffer_rtts () = grid_only "--buffer-rtts" "2"

(* The flags each mode reads still run it. *)
let test_sweep_grid_flags_run () =
  let out =
    accepts
      [ "sweep"; "--queues"; "droptail"; "--capacities"; "400000";
        "--fair-shares"; "40e3"; "--reps"; "1"; "--rtt"; "0.2"; "-d"; "3";
        "--buffer-rtts"; "1"; "--no-cache" ]
  in
  starts_with
    ~prefix:"queue=droptail backend=packet capacity=400000 fair_share=40000 "
    out

let test_matrix_flags_run () =
  let out =
    accepts
      [ "sweep"; "--matrix"; "--queues"; "droptail"; "--tcps"; "newreno";
        "--workloads"; "mice"; "--fault-axis"; "none"; "--guard"; "--no-cache" ]
  in
  starts_with ~prefix:"cell disc=droptail tcp=newreno wl=mice fault=none " out

(* --- sweep --results-dir ------------------------------------------------ *)

let sweep_in dir args =
  accepts
    ([ "sweep"; "-d"; "3"; "--fair-shares"; "20000"; "--results-dir"; dir ]
    @ args)

(* The rows a sweep prints, without the summary table after them. *)
let rows out = before out "\n-- sweep summary"

(* A row is a cache payload: a warm rerun prints the stored rows, so
   they match fresh ones byte for byte, [backend=packet] included. *)
let test_sweep_warm_rerun () =
  let dir = temp_dir () in
  let fresh = sweep_in dir [] in
  let warm = sweep_in dir [] in
  Alcotest.(check bool) "fresh run computes" true
    (contains fresh "cache: 0 hits, 2 misses");
  Alcotest.(check bool) "warm run serves" true
    (contains warm "cache: 2 hits, 0 misses");
  Alcotest.(check string) "same rows" (rows fresh) (rows warm);
  Alcotest.(check (list string)) "row heads"
    [
      "queue=droptail backend=packet capacity=600000 fair_share=20000 flows=30";
      "queue=taq backend=packet capacity=600000 fair_share=20000 flows=30";
    ]
    (List.filter_map
       (fun line ->
         if String.starts_with ~prefix:"queue=" line then
           Some (before line " rep=")
         else None)
       (lines warm))

(* A results dir filled by an earlier build is served while the key
   format holds: the entry's file name is the MD5 of the task key, and
   its content the row and the cache's integrity trailer. The entry is
   written here by hand, with figures no run computes, so a served row
   shows as itself. *)
let test_sweep_stored_key () =
  let dir = temp_dir () in
  let key =
    "sweep/v1/queue=taq/cap=600000/fs=20000/rtt=0.2/dur=3/buf=1/rep=0"
  in
  let row =
    "queue=taq backend=packet capacity=600000 fair_share=20000 flows=30 rep=0 \
     seed=1\n\
    \  jain_short=nan jain_long=0.123 utilization=0.456 loss_rate=0.7890\n"
  in
  Out_channel.with_open_bin
    (Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".txt"))
    (fun oc ->
      Printf.fprintf oc "%sTAQCACHEv1 %d %s\n" row (String.length row)
        (Digest.to_hex (Digest.string row)));
  let out = sweep_in dir [ "--queues"; "taq" ] in
  Alcotest.(check bool) "served, not computed" true
    (contains out "cache: 1 hits, 0 misses");
  Alcotest.(check string) "the stored row" row (rows out)

let () =
  Alcotest.run "cli"
    [
      ( "model -p",
        [
          Alcotest.test_case "0.5 rejected" `Quick test_p_half;
          Alcotest.test_case "1.5 rejected" `Quick test_p_above;
          Alcotest.test_case "negative rejected" `Quick test_p_negative;
          Alcotest.test_case "nan rejected" `Quick test_p_nan;
          Alcotest.test_case "full model 0.6 rejected" `Quick
            test_p_full_model;
          Alcotest.test_case "0 runs" `Quick test_p_zero;
          Alcotest.test_case "full model 0.45 runs" `Quick
            test_p_full_model_inside;
        ] );
      ( "sim -n",
        [ Alcotest.test_case "--flows 0 rejected" `Quick test_sim_no_flows ] );
      ( "sim --check",
        [
          Alcotest.test_case "reports every group" `Quick
            test_sim_check_report;
        ] );
      ( "packet path only",
        [
          Alcotest.test_case "mega rejected" `Quick test_no_mega;
          Alcotest.test_case "--backend rejected" `Quick test_no_backend;
          Alcotest.test_case "--bg-flows rejected" `Quick test_no_bg_flows;
          Alcotest.test_case "--fluid-dt rejected" `Quick test_no_fluid_dt;
          Alcotest.test_case "--check=fluid rejected" `Quick
            test_no_fluid_check;
        ] );
      ( "--resil",
        [
          Alcotest.test_case "sim --resil=SPEC rejected" `Quick
            (resil_value [ "sim"; "-d"; "3" ]);
          Alcotest.test_case "sweep --resil=SPEC rejected" `Quick
            (resil_value [ "sweep"; "-d"; "3"; "--no-cache" ]);
          Alcotest.test_case "faults --resil=SPEC rejected" `Quick
            (resil_value [ "faults" ]);
          Alcotest.test_case "bare --resil runs" `Quick test_sim_bare_resil;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "unknown name rejected" `Quick
            test_experiment_unknown;
          Alcotest.test_case "--jobs 0 rejected" `Quick
            test_experiment_jobs_zero;
          Alcotest.test_case "--check=bogus rejected" `Quick
            test_experiment_bad_check;
          Alcotest.test_case "--check before a target" `Quick
            test_experiment_check_takes_target;
          Alcotest.test_case "--obs before a target" `Quick
            test_experiment_obs_takes_target;
          Alcotest.test_case "same output at any --jobs" `Quick
            test_experiment_jobs_identical;
        ] );
      ( "unwritable output",
        [
          Alcotest.test_case "trace -o" `Quick test_trace_out;
          Alcotest.test_case "sim --pcap" `Quick test_sim_pcap;
          Alcotest.test_case "sim --obs=trace" `Quick test_sim_obs_trace;
          Alcotest.test_case "sweep --obs=trace" `Quick test_sweep_obs_trace;
          Alcotest.test_case "experiment --obs=trace" `Quick
            test_experiment_obs_trace;
        ] );
      ( "replay -t",
        [
          Alcotest.test_case "missing file" `Quick test_replay_missing;
          Alcotest.test_case "not a trace" `Quick test_replay_malformed;
        ] );
      ( "writable output",
        [
          Alcotest.test_case "trace -o then replay" `Quick test_trace_replay;
          Alcotest.test_case "sim --pcap" `Quick test_sim_pcap_written;
          Alcotest.test_case "sim --obs=trace" `Quick
            test_sim_obs_trace_written;
        ] );
      ( "sweep: one attempt",
        [
          Alcotest.test_case "--timeout-s rejected" `Quick test_sweep_no_timeout;
          Alcotest.test_case "--retries rejected" `Quick test_sweep_no_retries;
        ] );
      ( "sweep: mode flags",
        [
          Alcotest.test_case "--tcps needs --matrix" `Quick
            test_sweep_tcps_needs_matrix;
          Alcotest.test_case "--workloads needs --matrix" `Quick
            test_sweep_workloads_needs_matrix;
          Alcotest.test_case "--fault-axis needs --matrix" `Quick
            test_sweep_fault_axis_needs_matrix;
          Alcotest.test_case "--matrix rejects --capacities" `Quick
            test_matrix_capacities;
          Alcotest.test_case "--matrix rejects --fair-shares" `Quick
            test_matrix_fair_shares;
          Alcotest.test_case "--matrix rejects --reps" `Quick test_matrix_reps;
          Alcotest.test_case "--matrix rejects --rtt" `Quick test_matrix_rtt;
          Alcotest.test_case "--matrix rejects -d" `Quick test_matrix_duration;
          Alcotest.test_case "--matrix rejects --buffer-rtts" `Quick
            test_matrix_buffer_rtts;
          Alcotest.test_case "grid flags run the grid" `Quick
            test_sweep_grid_flags_run;
          Alcotest.test_case "matrix flags run the matrix" `Quick
            test_matrix_flags_run;
        ] );
      ( "sweep --results-dir",
        [
          Alcotest.test_case "warm rerun serves every row" `Quick
            test_sweep_warm_rerun;
          Alcotest.test_case "stored entry served by its key" `Quick
            test_sweep_stored_key;
        ] );
    ]

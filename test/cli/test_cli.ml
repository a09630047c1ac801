(* The CLI reports a bad input as a usage error: exit 124 (cmdliner's
   code) with a message naming the flag or the path. An input that the
   library would reject by raising (exit 125), or a path that the run
   cannot write, is caught before any simulation starts, so a rejected
   run prints nothing on stdout.

   Each case runs the built bin/taq_sim.exe, found relative to this
   test in dune's build tree, with stdout and stderr sent to temporary
   files. The accepting cases check that the up-front checks let a good
   input through, that an output file opened early to test the path is
   still written in full, and that [experiment] prints the same bytes
   at any --jobs. *)

let bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/taq_sim.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every temporary file is removed when the test exits. *)
let temp_file suffix =
  let path = Filename.temp_file "taq_cli" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

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

(* --- mega: every shard needs a flow ------------------------------------ *)

let test_mega_fewer_flows_than_shards () =
  rejects ~want:"--flows (3) must be at least --shards (4)"
    [ "mega"; "--flows"; "3"; "--shards"; "4"; "-d"; "1" ]

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
      ( "mega",
        [
          Alcotest.test_case "fewer flows than shards rejected" `Quick
            test_mega_fewer_flows_than_shards;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "unknown name rejected" `Quick
            test_experiment_unknown;
          Alcotest.test_case "--jobs 0 rejected" `Quick
            test_experiment_jobs_zero;
          Alcotest.test_case "--check=bogus rejected" `Quick
            test_experiment_bad_check;
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
    ]

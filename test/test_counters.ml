(* The registry targets' observability counters, pinned exactly.

   Every Registry target runs at quick scale with counters on, through
   the Harness.Pool path that `taq_sim experiment` takes, and each of
   its counters and gauges must equal its line in
   test/goldens/counters.expected, one line per value:

     TARGET counter NAME VALUE
     TARGET gauge NAME VALUE

   Counters are deterministic under fixed seeds, so any drift is a real
   behavioural change: fix it, or regenerate the file (Golden_file has
   the command). The test runs the targets on 4 worker domains and the
   regeneration runs them on 1, so a fresh regeneration that diffs
   clean against the committed file also shows that the counters do
   not depend on the worker count. The file must name exactly the
   registry's targets: a new target without lines fails, and so does a
   stale one. Each target must also run to completion and print
   something, so a target that raises or bypasses the Out sink fails
   here. *)

module Registry = Taq_experiments.Registry
module Run_spec = Taq_experiments.Run_spec
module Harness = Taq_harness
module Obs = Taq_obs.Obs

let () =
  match Run_spec.of_flags ~obs:"counters" () with
  | Ok spec -> Run_spec.install spec
  | Error msg -> failwith msg

let targets = List.filter_map Registry.find Registry.names

(* Each target's output and counters, in registry order. *)
let run ~jobs =
  Harness.Pool.run ~jobs
    (List.map
       (fun t ->
         Harness.Task.make ~key:t.Registry.name (fun ~seed:_ ->
             Registry.capture t ~full:false))
       targets)

let lines (r : string Harness.Pool.result) =
  let line kind (name, v) =
    Printf.sprintf "%s %s %s %d" r.Harness.Pool.key kind name v
  in
  List.map (line "counter") r.Harness.Pool.obs.Obs.counters
  @ List.map (line "gauge") r.Harness.Pool.obs.Obs.gauges

let regen () =
  List.iter
    (fun r ->
      ignore (Harness.Pool.value_exn r);
      List.iter print_endline (lines r))
    (run ~jobs:1)

let results = lazy (run ~jobs:4)

let check_target name () =
  let r =
    List.find (fun r -> r.Harness.Pool.key = name) (Lazy.force results)
  in
  (match r.Harness.Pool.value with
  | Ok output -> Alcotest.(check bool) "printed output" true (output <> "")
  | Error e -> Alcotest.failf "%s failed: %s" name e);
  Alcotest.(check (list string))
    "counters and gauges"
    (List.filter
       (fun line -> Golden_file.first_word line = name)
       (Golden_file.lines "counters"))
    (lines r)

let check_target_set () =
  Alcotest.(check (list string))
    "targets in counters.expected"
    (List.sort String.compare Registry.names)
    (List.sort_uniq String.compare
       (List.map Golden_file.first_word (Golden_file.lines "counters")))

let () =
  Golden_file.main ~suite:"taq_counters" ~regen
    [
      ( "file",
        [
          Alcotest.test_case "names every registry target" `Quick
            check_target_set;
        ] );
      ( "targets",
        List.map
          (fun name -> Alcotest.test_case name `Slow (check_target name))
          Registry.names );
    ]

(* Per-cell golden regression for the sweep matrix.

   Every cell of the default `taq_sim sweep --matrix` cross-product
   (the full disc zoo x the default TCP pair x both workloads x the
   default fault axis) is recomputed here with exactly the seed the
   sweep harness would derive from its task key, and its report block
   — the cell line plus the per-metric resilience lines — is compared
   byte-for-byte against the committed golden file
   [test/goldens/matrix.expected]. A dynamics drift in any
   discipline, TCP variant, workload or fault scenario therefore
   shows up as an explicit string diff on a named cell, not as a
   silent change in a merged report. The regen output (Golden_file has
   the command) is one cell block per cell, in canonical matrix order. *)

module Matrix = Taq_experiments.Matrix
module Task_key = Taq_experiments.Task_key

(* The CLI's default matrix TCP axis (sweep --matrix without --tcps). *)
let tcps = [ "newreno"; "cubic" ]

let cells =
  List.concat_map
    (fun disc ->
      List.concat_map
        (fun tcp ->
          List.concat_map
            (fun workload ->
              List.map
                (fun fault -> (disc, tcp, workload, fault))
                Matrix.default_fault_axis)
            Matrix.workload_names)
        tcps)
    Matrix.default_discs

(* Seeded from the sweep driver's own task key (no guard), so these
   goldens run exactly what `sweep --matrix` runs; test_fault's key
   differential pins that key's format. *)
let compute_block ~disc ~tcp ~workload ~fault =
  let seed =
    Taq_harness.Task.seed_of_key
      (Task_key.matrix ~disc ~tcp ~workload ~fault ())
  in
  String.trim
    (Taq_harness.Capture.text (fun () ->
         Matrix.run_cell ~disc ~tcp ~workload ~fault ~seed ()))

let field fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.failf "golden cell line missing field %S" name

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* (disc, tcp, workload, fault) -> committed cell block (the cell line
   plus the resil lines that follow it, newline-joined). *)
let expected_table =
  lazy
    (let blocks = ref [] in
     let current = ref None in
     let flush () =
       match !current with
       | None -> ()
       | Some (coords, lines) ->
           blocks := (coords, String.concat "\n" (List.rev lines)) :: !blocks;
           current := None
     in
     List.iter
       (fun line ->
         if starts_with ~prefix:"cell " line then begin
           flush ();
           match Matrix.cells_of_output line with
           | [ fields ] ->
               current :=
                 Some
                   ( ( field fields "disc",
                       field fields "tcp",
                       field fields "wl",
                       field fields "fault" ),
                     [ line ] )
           | _ -> Alcotest.failf "unparseable golden line: %s" line
         end
         else
           match !current with
           | Some (coords, lines) -> current := Some (coords, line :: lines)
           | None -> Alcotest.failf "golden line outside any cell: %s" line)
       (Golden_file.lines "matrix");
     flush ();
     List.rev !blocks)

let check_cell (disc, tcp, workload, fault) () =
  let expected =
    match
      List.assoc_opt (disc, tcp, workload, fault) (Lazy.force expected_table)
    with
    | Some block -> block
    | None ->
        Alcotest.failf "cell %s/%s/%s/%s missing from matrix.expected" disc
          tcp workload fault
  in
  Alcotest.(check string)
    "cell block" expected
    (compute_block ~disc ~tcp ~workload ~fault)

let golden_cell_fields (disc, tcp, workload, fault) =
  match
    List.assoc_opt (disc, tcp, workload, fault) (Lazy.force expected_table)
  with
  | Some block -> (
      match Matrix.cells_of_output block with
      | [ fields ] -> fields
      | _ -> Alcotest.failf "unparseable golden block for %s/%s" disc tcp)
  | None ->
      Alcotest.failf "missing golden cell %s/%s/%s/%s" disc tcp workload fault

let golden_recover (disc, tcp, workload, fault) ~metric =
  match
    List.assoc_opt (disc, tcp, workload, fault) (Lazy.force expected_table)
  with
  | None ->
      Alcotest.failf "missing golden cell %s/%s/%s/%s" disc tcp workload fault
  | Some block -> (
      match
        List.find_opt
          (fun kv -> List.assoc_opt "metric" kv = Some metric)
          (Matrix.resil_of_output block)
      with
      | Some kv -> field kv "recover_s"
      | None ->
          Alcotest.failf "golden cell %s/%s/%s/%s has no resil %s line" disc
            tcp workload fault metric)

(* no_recovery orders after any finite recovery time. *)
let recover_seconds = function
  | "no_recovery" -> infinity
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> Alcotest.failf "unparseable recover_s %S" s)

(* The committed report must itself witness the paper's headline:
   least-attained service with per-flow fair dropping keeps mice
   completion rates far more predictable than droptail. This reads
   the golden file, not a fresh run, so the claim is pinned to what
   reviewers actually see in the diff. *)
let check_las_beats_droptail tcp () =
  let jain disc =
    float_of_string (field (golden_cell_fields (disc, tcp, "mice", "none")) "jain")
  in
  let las = jain "las" and droptail = jain "droptail" in
  if not (las > droptail) then
    Alcotest.failf "las mice jain %.6f not above droptail %.6f (tcp=%s)" las
      droptail tcp

(* Resilience budget: after a link flap, TAQ's fairness recovers
   faster than droptail's (the committed goldens must keep witnessing
   it — this is the ordering the CI budget gate greps). Strict on the
   paper's TCP (newreno): TAQ recovers in finite time while droptail
   does not. Cubic's rolling-window Jain is too noisy for either to
   re-enter the 0.05 band inside the quick horizon, so there the
   ordering is asserted weakly (TAQ never recovers slower). *)
let check_taq_flap_recovery tcp workload () =
  let r disc =
    recover_seconds
      (golden_recover (disc, tcp, workload, "flap") ~metric:"jain")
  in
  let taq = r "taq" and droptail = r "droptail" in
  let ok = if tcp = "newreno" then taq < droptail else taq <= droptail in
  if not ok then
    Alcotest.failf
      "taq fairness recovery after flap (%s) not below droptail (%s) \
       (tcp=%s wl=%s)"
      (golden_recover ("taq", tcp, workload, "flap") ~metric:"jain")
      (golden_recover ("droptail", tcp, workload, "flap") ~metric:"jain")
      tcp workload

(* Flood cells must keep completing their legitimate flows — the
   graceful-degradation arc (the overload guard) seen from the
   outside: the mice cohort finishes despite 300 adversarial SYNs/s.
   Strict parity with the clean cell on newreno; a 2/3 completion
   floor on cubic, whose aggressive window growth loses a few mice to
   the flood-era drop storm. *)
let check_taq_flood_completion tcp () =
  let completed fault =
    int_of_string (field (golden_cell_fields ("taq", tcp, "mice", fault)) "completed")
  in
  let under_flood = completed "flood" and clean = completed "none" in
  let floor = if tcp = "newreno" then clean else clean * 2 / 3 in
  if under_flood < floor then
    Alcotest.failf
      "taq mice completions under flood (%d) below the %s floor (%d, clean %d)"
      under_flood tcp floor clean

let regen () =
  List.iter
    (fun (disc, tcp, workload, fault) ->
      print_endline (compute_block ~disc ~tcp ~workload ~fault))
    cells

let () =
  Golden_file.main ~suite:"taq_matrix" ~regen
    [
      ( "matrix cells",
        List.map
          (fun ((disc, tcp, workload, fault) as cell) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s/%s/%s" disc tcp workload fault)
              `Slow (check_cell cell))
          cells );
      ( "mice predictability ordering",
        List.map
          (fun tcp ->
            Alcotest.test_case
              (Printf.sprintf "las beats droptail (tcp=%s)" tcp)
              `Quick
              (check_las_beats_droptail tcp))
          tcps );
      ( "resilience budgets",
        List.concat_map
          (fun tcp ->
            List.map
              (fun workload ->
                Alcotest.test_case
                  (Printf.sprintf "taq flap recovery beats droptail (%s/%s)"
                     tcp workload)
                  `Quick
                  (check_taq_flap_recovery tcp workload))
              Matrix.workload_names
            @ [
                Alcotest.test_case
                  (Printf.sprintf "taq mice complete under flood (%s)" tcp)
                  `Quick
                  (check_taq_flood_completion tcp);
              ])
          tcps );
    ]

(** [BENCH.json] documents and the bench-regression gate.

    The bench harness writes one {!target} per registry target: its
    deterministic {!Obs} counters and gauges, exact under fixed seeds
    and independent of [--jobs]. The gate ({!diff}) fails when any of
    them drifts {e at all} against a committed baseline, so it never
    flakes on machine speed. Host time is gated by [bench/perf]. *)

type target = {
  name : string;
  counters : (string * int) list;
  gauges : (string * int) list;
}

type bench = { scale : string; targets : target list }

val make_target : name:string -> snapshot:Obs.snapshot -> target

(** Targets are emitted sorted by name (their counters and gauges are
    already name-sorted), making serialized documents canonical: two
    baselines diff cleanly whatever order the targets ran in. *)
val to_json : bench -> Json.t
(** Test hook: the document {!save} writes. *)

val of_string : string -> (bench, string) result
(** Test hook: the parser {!compare_files} reads both documents with. *)

val load : path:string -> (bench, string) result
(** Test hook: {!of_string} on a file. *)

val save : path:string -> bench -> unit

val diff :
  baseline:bench -> current:bench -> (string list, string list) result
(** Test hook: the comparison {!compare_files} runs on parsed documents. [Ok
    notes] when every target in [current] is in [baseline] and matches it
    exactly on counters and gauges (a key on one side only is drift); [Error
    failures] otherwise. A scale mismatch (quick vs full) and a run target
    absent from the baseline are failures; a baseline target that was not run
    is only a note. *)

val compare_files :
  baseline_path:string ->
  current_path:string ->
  (string list, string list) result

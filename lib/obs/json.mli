(** A minimal JSON value type with a printer and a strict
    recursive-descent parser.

    Just enough JSON for the observability layer and the performance
    benchmark: {!Obs} snapshots, Chrome [trace_event] files (see
    {!Trace}), [bench/perf]'s child reports and [BENCHMARK.json] are
    all written or read through this module, so every producer has a
    matching in-repo parser to test round-trips against — no external
    JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Integral floats print without a
    decimal point, so counter values round-trip exactly. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error). [\u] escapes are decoded as UTF-8 code units. *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option

(** Per-flow goodput accumulated into fixed time slices — the substrate
    for the paper's short-term vs long-term fairness analysis
    (Figures 2, 8, 11) and the shut-out/bandwidth-capture claims of
    Section 2.3. *)

type t

val create : slice:float -> t
(** [slice] is the window length in seconds (the paper uses 20 s for
    short-term fairness and the whole run for long-term). *)

val record : t -> flow:int -> time:float -> bytes:int -> unit
(** Attribute [bytes] of goodput to [flow] at [time]. Any int is a flow
    id. Each flow keeps one counter per slice up to its latest, so
    memory grows with the horizon, not with the number of records.
    @raise Invalid_argument if [time] is negative. *)

val slice_count : t -> int
(** Test hook: highest slice index recorded + 1. *)

val bytes_in_slice : t -> slice:int -> flow:int -> int
(** Test hook: one cell of the table. *)

val flow_total : t -> flow:int -> int
(** Test hook: a flow's bytes over all slices. *)

val jain_per_slice : t -> flows:int array -> float array
(** Test hook: the per-slice values {!mean_jain} averages. Jain Fairness Index
    of per-flow bytes within each slice, flows without traffic counting as
    zero. *)

val mean_jain : t -> flows:int array -> ?first:int -> ?last:int -> unit -> float
(** Mean of {!jain_per_slice} over slices [first..last] (defaults:
    all). Slices in which nobody transmitted are skipped. *)

val long_term_jain : t -> flows:int array -> float
(** Jain index of whole-run per-flow totals. *)

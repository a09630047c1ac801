(** Exponentially weighted moving averages.

    Used for middlebox-side rate and loss estimation, and for epoch
    (RTT) smoothing per the paper's "weighted moving average". *)

type t

val create : alpha:float -> t
(** [create ~alpha] with [alpha] in (0..1]: weight of a new sample.
    Until the first sample arrives the value is reported as the first
    observation (no synthetic initial value). *)

val update : t -> float -> unit
(** Fold in a new sample. *)

val value : t -> float
(** Current average; [nan] before any sample. *)

val is_initialized : t -> bool

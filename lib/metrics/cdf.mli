(** Empirical cumulative distribution functions — the presentation of
    Figure 12's download-time results. *)

type t

val of_samples : float array -> t
(** Raises [Invalid_argument] on empty input. The input is not
    mutated. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0..1]: smallest sample at or above the
    q-th fraction of the distribution. *)

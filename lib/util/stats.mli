(** Descriptive statistics over float samples.

    Functions taking arrays never mutate their argument (percentiles
    sort a copy). Empty-input behaviour is documented per function. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on empty input. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on empty
    input. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [0..100], linear interpolation
    between order statistics. Raises [Invalid_argument] on empty
    input. *)

val median : float array -> float
(** [percentile xs 50.]. *)

val jain_index : float array -> float
(** Jain Fairness Index [ (Σx)² / (n·Σx²) ]; 1 when all equal,
    [1/n] when one element holds everything. All-zero or empty input
    yields 1.0 (vacuous fairness: nobody got anything, equally). *)

val sum : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p10 : float;
  median : float;
  p90 : float;
  max : float;
}
(** A one-line distribution description, matching the statistics the
    paper reports per bucket in Figure 1. *)

val summarize : float array -> summary
(** Raises [Invalid_argument] on empty input. *)

val log_bucket : base:float -> first:float -> float -> int
(** [log_bucket ~base ~first x] is the index of the logarithmic bucket
    containing [x]: bucket [i] covers [first·base^i .. first·base^(i+1)).
    Values below [first] map to bucket 0. Used for Figure 1's
    logarithmically-sized object-size buckets. *)

val bucket_bounds : base:float -> first:float -> int -> float * float
(** Inverse of {!log_bucket}: bounds of bucket [i]. *)

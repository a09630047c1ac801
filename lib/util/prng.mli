(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that
    every experiment is reproducible from a single integer seed. The
    generator is splitmix64: tiny state, good statistical quality, and
    trivially splittable into independent streams. *)

type t
(** A mutable generator. Generators are cheap; create one per logical
    stream (per flow, per workload source) by {!split}ting a root. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing
    [t]. Use to give sub-components their own streams so that adding a
    draw in one component does not perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to
    [0..1]). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. Requires
    [mean > 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distributed: [scale] is the minimum value, [shape] the tail
    index (smaller = heavier tail). Requires both positive. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** exp of a Gaussian; [mu]/[sigma] are the parameters of the
    underlying normal. *)

(** Finite discrete-time Markov chains and their stationary
    distributions.

    The paper's idealized TCP models (Figures 4 and 5) are built on
    this module. Two independent solvers are provided; the test suite
    checks they agree, which guards both implementations. *)

type t

val create : labels:string array -> matrix:float array array -> t
(** [matrix.(i).(j)] is the transition probability i→j. Raises
    [Invalid_argument] unless the matrix is square, matches the label
    count, has non-negative entries and rows summing to 1 (within
    1e-9; rows are then renormalized exactly). *)

val labels : t -> string array

val index : t -> string -> int
(** Index of a label. Raises [Not_found]. *)

val probability : t -> int -> int -> float
(** Test hook: one transition probability. *)

val step : t -> float array -> float array
(** Test hook: one application of the chain to a distribution. *)

val stationary_power : t -> float array
(** Test hook: the reference that {!stationary_exact} is checked against.
    Power iteration from the uniform distribution, until one step moves the
    distribution by less than 1e-12 in L1 or after 100 000 steps. Converges
    for the aperiodic, irreducible chains built here. *)

val stationary_exact : t -> float array
(** Direct solve of [πP = π, Σπ = 1] by Gaussian elimination with
    partial pivoting. *)

val hitting_times : t -> targets:int list -> float array
(** Expected number of steps to first reach any state in [targets],
    from every state (0 for the targets themselves). Solves
    [h = 1 + Q h] on the non-target states by Gaussian elimination.
    Raises [Invalid_argument] if [targets] is empty or some state
    cannot reach a target (singular system). *)

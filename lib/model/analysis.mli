(** Derived quantities from the idealized models: loss-rate sweeps, the
    timeout tipping point, and goodput estimates — the takeaways
    Section 3.2 of the paper builds TAQ's design on. *)

type sweep_point = {
  p : float;
  sent : float array;  (** sent-class distribution, index = packets/epoch *)
  timeout_mass : float;
  silence_mass : float;
  goodput_pkts_per_epoch : float;
}

val sweep :
  ?wmax:int -> ?full:bool -> p_lo:float -> p_hi:float -> steps:int -> unit ->
  sweep_point list
(** Evaluate the model over an inclusive range of loss probabilities.
    [full] selects the expanded model (default: partial). *)

val goodput_pkts_per_epoch : sent:float array -> p:float -> float
(** Expected successfully delivered packets per epoch under the
    stationary sent-class distribution: [Σ_k k·π(k)·(1-p)]. *)

val tipping_point : ?wmax:int -> unit -> float
(** Smallest loss probability, on a grid of 1000 steps over [0, 0.5),
    at which the stationary timeout mass reaches 0.5 — a majority of
    flows stuck in the timeout machinery. The paper reads this off the model as
    roughly p = 0.1, the pthresh TAQ's admission control uses. *)

val epochs_to_first_timeout :
  ?wmax:int -> p:float -> from_window:int -> unit -> float
(** Expected epochs before a flow currently at congestion window
    [from_window] first enters the timeout machinery (b*, b0 or S1) —
    the transient complement of the stationary analysis: how long a
    freshly recovered flow survives at loss rate [p]. Raises
    [Invalid_argument] for [from_window] outside [2, wmax] or [p = 0]
    (a lossless flow never times out). *)

val steepest_increase : ?wmax:int -> unit -> float
(** Loss probability, on a grid of 200 steps over [0, 0.45), at which
    the timeout mass grows fastest (the knee of the curve). *)

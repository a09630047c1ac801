(** Figure 6: validating the idealized Markov model against
    simulation.

    Two validation modes, both sampling how many packets each flow
    sends per RTT epoch and comparing the empirical distribution with
    the model's stationary sent-class distribution:

    - {e Bernoulli}: a single flow over a clean link with independent
      per-packet loss probability p — the model's exact operating
      assumption. The receiver window is capped at Wmax to mirror the
      model's finite window.
    - {e Bottleneck}: many flows over a droptail bottleneck (the
      paper's setting, capacities up to 1 Mbps); p is whatever the
      queue inflicts and is measured at the link. *)

type mode = Bernoulli | Bottleneck of float  (** capacity in bps *)

type params = {
  modes : mode list;
  variants : Taq_tcp.Tcp_config.variant list;
      (** TCP flavours for Bernoulli mode: the idealized model sits
          between NewReno (matches at low p) and SACK (matches at
          high p) *)
  loss_probabilities : float list;  (** targets for Bernoulli mode *)
  flows_per_mbps : int list;  (** contention levels for Bottleneck,
                                  scaled by capacity *)
  duration : float;
}

val default : params
(** Bernoulli at p ∈ 0.05..0.3 plus bottlenecks at 200 K, 750 K and
    1 Mbps — the paper's three simulated capacities. Every run uses
    the model's Wmax of 6, a 100 ms RTT and seed 31. *)

val quick : params

type row = {
  setting : string;
  p : float;  (** target (Bernoulli) or measured (Bottleneck) loss *)
  sim : float array;  (** empirical sent-class distribution, 0..wmax *)
  model : float array;  (** model stationary sent-classes at this p *)
  l1 : float;  (** total variation-style distance Σ|sim-model| *)
  epochs : int;  (** sample size *)
  sim_goodput : float;  (** delivered segments per flow-epoch, measured *)
  model_goodput : float;  (** the Markov model's expectation at this p *)
  padhye_goodput : float;
      (** the Padhye SIGCOMM'98 formula at the same operating point
          (Wmax window cap, T0 = 2 epochs) — the paper's Section 6
          comparison *)
}

val run : params -> row list

val print : row list -> unit

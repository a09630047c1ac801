(** The {e full} idealized model (Figure 5): repetitive timeouts are
    expanded into explicit backoff stages instead of the single
    aggregated [b*] state.

    The paper omits the expanded derivation "due to space
    constraints"; this reconstruction follows its stated structure
    (stages for ≥1, ≥2 and ≥3 backoffs):

    - Stage 1 (first timeout): wait state [b1] lasting exactly one
      epoch (the base timer is T0 = 2·RTT: one silent epoch, then the
      retransmit epoch), then retransmit state [R1].
    - Stage 2 (one backoff): wait [b2] with expected 3 epochs, modelled
      geometrically ([b2→b2] w.p. 2/3), then [R2].
    - Stage 3+ (two or more backoffs, aggregated): wait [b3+] with the
      geometric-tail expectation conditioned on ≥3 backoffs,
      [E = 8(1-p)/(1-2p) − 1] (which is 7 epochs at p = 0, i.e.
      2³−1), then [R3]. A failed [R3] re-enters [b3+].
    - Every [Rk] succeeds to [S2] w.p. [1-p] and fails to the next
      stage w.p. [p].
    - Window states [S2..SWmax] behave exactly as in
      {!Partial_model}; every timeout entry goes to [b1].

    The test suite checks this model marginalizes to the partial model
    (timeout-machinery mass agrees closely over the paper's p range). *)

type t

val create : ?wmax:int -> p:float -> unit -> t
(** Default [wmax = 6]. Raises [Invalid_argument] for [p] outside
    [0, 0.5) or [wmax < 4]. *)

val chain : t -> Markov.t
(** Test hook: the underlying chain, for structural checks. *)

val stationary : t -> float array

val sent_distribution : t -> float array
(** Same aggregation as {!Partial_model.sent_distribution}: class 0 is
    all wait states, class 1 all retransmit stages, class n ≥ 2 is
    Sn. *)

val timeout_mass : t -> float

val silence_mass : t -> float

val backoff_stage_mass : t -> float array
(** Index k ∈ {0,1,2}: stationary probability of being in backoff stage
    k+1 (wait + retransmit states of that stage) — the distribution
    over repetitive-timeout depth that only the full model exposes. *)

val state_labels : t -> string array

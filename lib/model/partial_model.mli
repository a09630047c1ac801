(** The paper's idealized Markov model of TCP in small packet regimes —
    the {e partial} variant (Figure 4), in which all repetitive-timeout
    backoff stages are aggregated into one buffer state [b*] with the
    expected idle time of equation (8), [1/(1-2p)].

    States: [b*] (aggregated repetitive-timeout wait), [b0] (the single
    empty-buffer epoch of a simple timeout from S4..SWmax), [S1]
    (timeout retransmit), and [S2..SWmax] (congestion windows).

    Transition structure, with per-packet loss probability [p]
    (equations (1)–(3), (9), (10) of the paper):
    - [Sn → Sn+1] w.p. [(1-p)^n] (window growth; SWmax self-loops)
    - [Sn → S⌊n/2⌋] w.p. [n·p·(1-p)^(n-1)·(1-p)] for n ≥ 4 (fast
      retransmission; impossible below a window of 4)
    - residual mass: timeout — to [b0] from n ≥ 4 (simple timeout,
      2·RTT silence), to [b*] from S2/S3
    - [b0 → S1] w.p. 1; [S1 → S2] w.p. [1-p]; [S1 → b*] w.p. [p]
    - [b* → b*] w.p. [2p]; [b* → S1] w.p. [1-2p]

    Valid for [0 ≤ p < 1/2] (the geometric backoff series diverges at
    p = 1/2: flows never leave timeout). *)

type t

val create : ?wmax:int -> p:float -> unit -> t
(** Default [wmax = 6], the paper's setting. Raises [Invalid_argument]
    for [p] outside [0, 0.5) or [wmax < 4]. *)

val chain : t -> Markov.t

val stationary : t -> float array
(** Exact stationary distribution (cached). *)

val sent_distribution : t -> float array
(** Index [k] = stationary probability the flow sends [k] packets in an
    epoch — the aggregation plotted in Figure 6: class 0 sums the
    silent buffer states, class 1 is the retransmit state S1, class
    [n ≥ 2] is Sn. Length [wmax + 1]. *)

val timeout_mass : t -> float
(** Stationary probability of being anywhere in the timeout machinery
    (b*, b0 or S1). *)

val silence_mass : t -> float
(** Stationary probability of sending nothing (b* and b0). *)

val expected_idle_epochs : p:float -> float
(** Equation (8): the expected wait in the aggregated timeout state,
    [1/(1-2p)]. *)

val state_labels : t -> string array

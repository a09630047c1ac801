(** Mean-field fluid model of a large TCP background population.

    The scaling limit that makes the "millions of users" tier
    affordable: instead of one packet-level state machine per
    background flow, the whole background cohort is a pair of coupled
    ODEs — the population-mean congestion window [W(t)] and the fluid
    backlog [Q(t)] it keeps at the bottleneck — in the style of
    McDonald & Reynier's mean-field limit of many TCP connections
    through a RED buffer and Genin & Nakassis's validated aggregate
    TCP queuing model (see PAPERS.md).

    With [N] background flows of mean propagation RTT [R0] sharing a
    bottleneck of capacity [C], per-packet loss/mark probability
    [p(t)] fed back from the queue discipline, and [S(t)] the service
    rate currently available to the background aggregate:

    {v
    R(t)  = R0 + 8·Q(t)/C                    (queueing-inflated RTT)
    λ(t)  = N·A(t)·W(t)/R(t)                 (offered load, pkts/s)
    dQ/dt = b·λ(t) − S(t)/8,  0 ≤ Q ≤ B      (backlog, bytes; excess
                                              over the buffer share B
                                              is dropped fluid)
    dW/dt = 1/R(t) − p(t)·(W(t)/R(t))·(W(t)/2)
                                             (AIMD: additive increase
                                              once per RTT, halving at
                                              rate p per sent packet)
    dA/dt = (1−A)/T − A·p(t)·(W(t)/R(t))·min(1, 3/W(t))
                                             (timeout silence: flows
                                              drop out when a loss
                                              finds fewer than three
                                              duplicate acks — certain
                                              at small W — and return
                                              after an RTO of T)
    v}

    where [b] is the background packet size in bytes and [A(t)] is the
    fraction of the population currently sending at all. The [A]
    equation is what makes the aggregate honest in this paper's small
    packet regime: with tiny per-flow windows most losses are
    timeouts, not fast retransmits, and a population that ignores the
    resulting silence overstates its own offered load (and the drop
    rate it induces) badly. The integrator
    is fixed-step forward Euler: {!step} advances one [dt] and is a
    pure function of the state and its two inputs, so the whole
    background trajectory is deterministic and seed-independent —
    byte-identical counters at any [--jobs] come for free.

    Validity envelope: the mean-field limit holds when [N] is large
    (hundreds+; the approximation error is O(1/N)), flows are
    long-lived and homogeneous enough for a population-mean window to
    be meaningful, and [dt] is well below both the RTT and the buffer
    drain time [8B/C]. It deliberately does not model slow start,
    timeouts/backoff, or per-flow discrimination inside the disc —
    foreground behaviour stays fully packet-level precisely so those
    effects remain exact where the paper's claims live. *)

type params = {
  n_flows : int;  (** background population size [N] *)
  rtt_prop : float;  (** mean two-way propagation delay [R0], seconds *)
  pkt_bytes : int;  (** background packet size [b] *)
  buffer_bytes : int;  (** fluid share of the bottleneck buffer [B] *)
  capacity_bps : float;  (** bottleneck capacity [C] (queueing delay) *)
  dt : float;  (** integrator step, seconds *)
}
(** The timeout silence [T] is 1 s, and {!Source} lets the aggregate
    claim at most 95% of the link, keeping the residual packet path
    live. *)

val wmax : float
(** Per-flow window clamp: 64 packets. *)

val w_min : float
(** Window floor (deep-timeout regime): 0.25 packets. *)

val make_params :
  rtt_prop:float ->
  pkt_bytes:int ->
  dt:float ->
  n_flows:int ->
  capacity_bps:float ->
  buffer_bytes:int ->
  unit ->
  params
(** Validated constructor. Raises [Invalid_argument] on a non-positive
    population, packet size, capacity, buffer, step or RTT. *)

val params_to_string : params -> string
(** Canonical compact rendering, e.g.
    ["n=5000,rtt=0.2,pkt=500,dt=0.05"] (only the identity-bearing
    fields). Folded verbatim into sweep/mega task keys, so equal fluid
    configurations hash equally. *)

type t
(** Mutable integrator state plus a byte-conservation ledger. *)

val create : params -> t
(** Fresh state: [W = 1] (a just-started population), everyone active,
    empty backlog. *)

val params : t -> params

val window : t -> float
(** Current population-mean congestion window, packets. *)

val backlog_bytes : t -> float
(** Current fluid backlog at the bottleneck, bytes. *)

val active_fraction : t -> float
(** Test hook: fraction of the population not currently silenced by a timeout,
    in [(0, 1]]. *)

val demand_bps : t -> float
(** The aggregate's instantaneous offered rate
    [N·A·W/R · 8b] at the current state — what the next {!step} will
    inject. The coupling layer uses it to split the bottleneck's
    service between fluid and packets in proportion to their arrival
    rates, the way a shared FIFO does. *)

type tick = {
  offered_bps : float;  (** aggregate arrival rate over the step *)
  served_bps : float;  (** fluid actually drained over the step *)
  dropped_bytes : float;  (** fluid bytes lost to buffer overflow *)
  p_effective : float;  (** total loss probability the window saw *)
}

val step : t -> service_bps:float -> p_loss:float -> tick
(** Advance one [dt]. [service_bps] is the capacity currently
    available to the background aggregate (the link capacity minus the
    measured packet-side throughput); [p_loss] is the loss/mark
    probability fed back from the disc. Both are clamped to sane
    ranges rather than raising: the coupling layer measures them from
    a live simulation. *)

(** {1 Conservation ledger} — every fluid byte that arrived is served,
    dropped, or still in the backlog; {!Source} verifies this under
    the [Fluid] check group. *)

val arrived_bytes : t -> float

val served_bytes : t -> float

val dropped_bytes : t -> float

val loss_rate : t -> float
(** Lifetime [dropped/arrived]; 0 before any arrival. *)

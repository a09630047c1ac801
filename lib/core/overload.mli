(** Overload guard: graceful degradation under state exhaustion.

    TAQ's value proposition is cheap {e approximate} per-flow state at
    a middlebox — but an adversarial small-packet flood (SYN churn,
    one-packet-flow stampedes) can thrash any finite flow table. The
    guard watches two pressure signals and, when pressure is
    {e sustained}, flips the discipline into a droptail pass-through so
    service continues with bounded state; fairness machinery resumes
    once pressure subsides.

    Pressure signals (sampled by [Taq_disc] on enqueue and at ticks):
    - cap-eviction churn: the {!Flow_tracker} insert path had to evict
      an entry since the last sample, i.e. the table is full {e and}
      new flows keep arriving — the signature of a flood, and a signal
      that clears by itself the moment arrivals stop (unlike table
      occupancy, which stays pinned at the cap until idle expiry);
    - admission backlog: the {!Admission} waiting table holds
      {!waiting_high} pools or more.

    Hysteresis state machine (the dwells and the threshold are the
    constants below; [Taq_config.guard] only turns the guard on):

    {v
      Normal --(pressure sustained >= trip_after,
                dwell >= min_dwell)--------------> Degraded
      Degraded --(calm >= clear_after,
                  dwell >= min_dwell)------------> Recovering
      Recovering --(pressure, dwell >= min_dwell)-> Degraded
      Recovering --(calm, dwell >= recovery_dwell)-> Normal
    v}

    The [min_dwell] floor on every edge is what makes the guard unable
    to flap: mode changes are at least [min_dwell] apart, which the
    [Guard] check group asserts on every transition. While [Degraded]
    the discipline bypasses classification/admission/pushout (see
    [Taq_disc]); [Recovering] re-enables them but stays trip-sensitive
    so a still-hot flood sends it straight back. *)

type mode = Normal | Degraded | Recovering

val trip_after : float
(** Test hook: 0.25 s of sustained pressure trips [Normal -> Degraded]. *)

val clear_after : float
(** Test hook: 1 s without pressure starts the exit from [Degraded]. *)

val min_dwell : float
(** Test hook: 1 s, the minimum time in any mode before the next
    transition — the anti-flap hysteresis. *)

val recovery_dwell : float
(** Test hook: 1 s in [Recovering] (classification back on,
    trip-sensitive) before declaring [Normal]. *)

val waiting_high : int
(** Test hook: 64, the admission waiting-table size treated as
    pressure. *)

val mode_name : mode -> string
(** ["normal" | "degraded" | "recovering"]. *)

type t

val create :
  ?check:Taq_check.Check.t ->
  ?obs:Taq_obs.Obs.t ->
  cap:int ->
  now:(unit -> float) ->
  unit ->
  t
(** [cap] is [Taq_config.max_tracked_flows], used only for the
    tracked-flows invariant; [check]/[obs] default to
    [Taq_check.Check.off]/[Taq_obs.Obs.off]. *)

val mode : t -> mode

val degraded : t -> bool
(** [mode t = Degraded] — the hot-path branch [Taq_disc] consults. *)

val sample : t -> tracked:int -> cap_evictions:int -> waiting:int -> unit
(** Feed one observation: current tracked-flow count, the tracker's
    {e cumulative} cap-eviction counter (the guard differences it
    internally) and the admission waiting-table size. Advances the
    state machine; runs [Guard]-group invariants (tracked ≤ cap;
    transitions respect dwell floors); bumps
    [guard.degraded_entered]/[guard.degraded_exited] counters and the
    [guard.degraded_dwell_ms] gauge. *)

val degraded_entered : t -> int
val degraded_exited : t -> int

val report : t -> string
(** One-line summary, e.g. for drill output. *)

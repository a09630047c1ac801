(** Per-flow observation state at the TAQ middlebox.

    For every flow crossing the queue, tracks the paper's four epoch
    parameters — new packets, highest sequence number, retransmissions,
    and last-epoch losses (Section 3.3) — plus the derived quantities
    queue management needs: the approximate state (Figure 7), silence
    length, rate estimate, over-penalization, and epoch estimate.

    Retransmissions are {e inferred} (sequence number at or below the
    flow's highest seen), never read from the packet's sender-side
    [retx] flag: a middlebox could not know it.

    {b Precondition: the clock is monotone.} Successive reads of [now]
    must never decrease. {!active_flow_count} and {!tick} visit only the
    flows whose deadline has come, kept in a min-heap and a timing wheel;
    a clock that stepped back would find flows they have already passed
    over. {!clock_monotone} reports whether the precondition has held. *)

type t

type classification = New_data | Retransmission

val create :
  ?obs:Taq_obs.Obs.t -> config:Taq_config.t -> now:(unit -> float) -> unit -> t
(** [obs] (default [Taq_obs.Obs.off]) receives the
    [tracker.flows_created], [tracker.evictions] and
    [tracker.cap_evictions] labeled counters. *)

val observe_syn : t -> flow:int -> pool:int -> unit
(** A SYN reached the queue (starts epoch estimation for the flow). *)

val observe_data : t -> Taq_net.Packet.t -> classification
(** A data packet arrived at the queue: classify it, update counters
    and the epoch estimate. Creates flow state on first sight. *)

val observe_drop : t -> Taq_net.Packet.t -> unit
(** The queue dropped this packet (of an already-observed flow). *)

val tick : t -> unit
(** Housekeeping: roll epochs of flows that have gone quiet (their
    state machine must advance through silent epochs even with no
    packets arriving) and forget flows idle beyond the configured
    timeout. Call periodically (the discipline schedules this). Costs
    O(1) per flow whose epoch boundary or idle expiry has come, plus one
    step per {!wheel_width} of simulated time since the last call (at
    most a full turn of the wheel), not O(n). *)

val wheel_width : float
(** Test hook: width in seconds of a bucket of the wheel {!tick} drains: a
    module constant, exposed so tests can land the clock on a bucket edge. *)

val state : t -> flow:int -> Flow_state.t
(** Test hook: the flow's classified state. Unknown flows report
    {!Flow_state.initial}. *)

val silence_epochs : t -> flow:int -> int
(** Consecutive fully-silent epochs ending now (0 for active flows) —
    the recovery queue's priority key. *)

val epoch_len : t -> flow:int -> float

val epochs_observed : t -> flow:int -> int

val rate_bps : t -> flow:int -> float
(** Smoothed goodput estimate; 0 for unknown flows. *)

val outstanding_drops : t -> flow:int -> int
(** Test hook: drops of the flow not yet matched by a retransmission. *)

val recent_drops : t -> flow:int -> int
(** Drops inflicted on the flow across the current and previous
    epochs. *)

val is_overpenalized : t -> flow:int -> bool
(** More than [overpenalize_drops] drops across the current and
    previous epochs. *)

val is_new_flow : t -> flow:int -> bool
(** Within its first [slowstart_epochs] epochs and still in slow
    start. *)

val active_flow_count : t -> int
(** Flows seen within the last few epochs — the denominator of the
    fair share. O(log n) per flow whose window closed since the last
    call. *)

val active_flow_count_scan : t -> int
(** {!active_flow_count} recomputed by scanning every tracked flow —
    O(n), for invariant checking. *)

val overdue_flows : t -> int
(** Tracked flows that are due an epoch roll or idle expiry right now
    but that the next {!tick} would not visit. Always 0 unless the
    tick's wheel is broken. O(n), for invariant checking. *)

val clock_monotone : t -> bool
(** No read of [now] so far has gone back in time. *)

val tracked_flow_count : t -> int
(** Never exceeds [max_tracked_flows]: inserting into a full table
    evicts the least-recently-seen entry first (idle-first/LRU; ties
    broken by lowest id for determinism). *)

val cap_evictions : t -> int
(** Cumulative insert-time evictions forced by the [max_tracked_flows]
    cap — the overload guard's churn pressure signal. Distinct from
    idle-timeout expiry in {!tick}. *)

val peak_tracked : t -> int
(** High-water mark of {!tracked_flow_count} over the tracker's life. *)

val fair_share_bps : ?flow:int -> t -> float
(** Test hook: the fair share in bits/second — equal split under fair queuing,
    or the flow's RTT-weighted share under the proportional model (pass [flow]
    so its epoch can be consulted). *)

val active_pool_count : t -> int
(** Test hook: distinct active flow pools (pool-less flows count as
    singletons). *)

val pool_rate_bps : t -> flow:int -> float
(** Test hook: aggregate smoothed rate of the flow's whole pool. *)

val below_fair_share : t -> flow:int -> bool
(** Under [pool_fairness] the comparison is the flow's {e pool}
    aggregate rate against the per-pool fair share. *)

val pool_of : t -> flow:int -> int
(** Test hook: the pool the tracker files the flow under. *)

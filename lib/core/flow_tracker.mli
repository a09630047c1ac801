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
    must never decrease. {!active_flow_count} visits only the flows
    whose active window may have closed, kept in a min-heap, and
    {!tick} forgets idle flows from the head of a list ordered by when
    each flow was last seen. A clock that stepped back would find flows
    the heap has already passed over, and would break the list's order.
    {!clock_monotone} reports whether the precondition has held. *)

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
(** Housekeeping: forget flows idle beyond the configured timeout, and
    mark an epoch boundary for the flows that have gone quiet (their
    state machine must advance through silent epochs even with no
    packets arriving). Call periodically (the discipline schedules
    this). A flow's epochs are rolled through the last tick when it is
    next read, by any call that names it but {!rolled}, so the results
    are those of rolling every flow at every tick. Costs O(1) per flow
    it forgets and O(1) besides. Only a tick more than 32 of the
    shortest possible epochs after the last one (0.64 s at default
    settings) rolls every tracked flow: after such a gap a flow could
    owe the 64 rolls at which a catch-up stops rolling. Every tick does
    so when a flow's first epoch estimate could cut the default more
    than 24x (10x at default settings). *)

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
(** Within its first {!slowstart_epochs} epochs and still in slow
    start. *)

val slowstart_epochs : int
(** Test hook: 3, the epochs a flow counts as new for; the reference
    tracker in the tests reads it. *)

val active_flow_count : t -> int
(** Flows seen within the last few epochs — the denominator of the
    fair share. O(log n) per flow whose window closed since the last
    call. *)

val active_flow_count_scan : t -> int
(** {!active_flow_count} recomputed by scanning every tracked flow —
    O(n), for invariant checking. *)

val overdue_flows : t -> int
(** Tracked flows that the next {!tick} could miss: those missing from
    its list, plus those idle past the timeout that sit behind a flow
    that is not. Always 0 unless the list is broken. O(n), for
    invariant checking. *)

val rolled : t -> flow:int -> bool
(** The flow's epochs have been rolled through the last {!tick}, or the
    flow is not tracked. Reads the flow's record as it stands, without
    rolling it. For invariant checking: every other per-flow read rolls
    the flow first, so a flow just read must be rolled. *)

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

val fair_share_bps : t -> float
(** Test hook: the fair share in bits/second (Section 4.2, the standard
    fair-queuing model): capacity split equally across the active
    flows, the full capacity when none is active. *)

val below_fair_share : t -> flow:int -> bool
(** The flow's smoothed rate is strictly below {!fair_share_bps}. *)

val pool_of : t -> flow:int -> int
(** Test hook: the pool the tracker files the flow under. *)

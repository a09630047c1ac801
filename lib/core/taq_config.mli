(** TAQ middlebox configuration.

    Defaults follow the paper: pthresh = 0.1 (the model's tipping
    point), flows treated as over-penalized beyond 2 drops in an epoch,
    a capacity-limited recovery queue, and a capped NewFlow queue used
    for admission control. *)

type epoch_source =
  | Estimated of {
      default_epoch : float;  (** used before any estimate exists *)
      min_epoch : float;
      max_epoch : float;
      alpha : float;  (** weight of the moving-average revision *)
    }
      (** Middlebox-side epoch estimation (Section 3.3): the initial
          estimate is the SYN→first-data gap, revised by observing
          packet bursts at epoch starts. *)
  | Oracle of float
      (** A fixed, externally known RTT — the ablation switch; not what
          a deployed middlebox has. *)

type admission = {
  pthresh : float;  (** loss-rate threshold beyond which new pools are
                        refused (the model's tipping point, 0.1) *)
  hysteresis : float;  (** admit below [pthresh - hysteresis] ("slightly
                           smaller ... as a congestion avoidance
                           strategy") *)
  t_wait : float;  (** a rejected pool is guaranteed admission after
                       this long (kept under the SYN retry timeout) *)
  pool_expiry : float;  (** forget pools idle this long *)
  loss_alpha : float;  (** EWMA weight of the per-packet loss signal *)
}

type guard = {
  trip_after : float;  (** sustained pressure (cap-eviction churn or
                           admission backlog) for this long trips
                           [Normal -> Degraded] *)
  clear_after : float;  (** this long without pressure starts the exit
                            from [Degraded] *)
  min_dwell : float;  (** minimum time in any mode before the next
                          transition — the anti-flap hysteresis *)
  recovery_dwell : float;  (** time spent in [Recovering] (classification
                               back on, trip-sensitive) before declaring
                               [Normal] *)
  waiting_high : int;  (** admission waiting-table size treated as
                           pressure *)
}

type t = {
  capacity_pkts : int;  (** total buffer across all TAQ queues *)
  fairness_model : Fair_share.model;
      (** fair-queuing (equal split, the paper's focus) or
          RTT-proportional shares (§4.2) *)
  pool_fairness : bool;
      (** share capacity across flow pools (application sessions)
          rather than individual flows (§4.3: "TAQ can implement fair
          sharing across flow pools ... to maintain fairness across
          applications"); flows without a pool count as singleton
          pools *)
  capacity_bps : float;  (** bottleneck rate (known to the operator,
                             §4.4: TAQ nodes are aware of the
                             available bandwidth) *)
  recovery_share : float;  (** cap on the recovery queue's share of the
                               link, preventing the all-retransmission
                               collapse of §3.2 *)
  newflow_cap : int;  (** max packets queued in the NewFlow queue *)
  overpenalize_drops : int;  (** drops within an epoch beyond which a
                                 flow moves to the OverPenalized queue
                                 (§4.2: "more than 2") *)
  slowstart_epochs : int;  (** epochs during which a flow is scheduled
                               from the NewFlow queue *)
  tick_interval : float;  (** housekeeping period for rolling epochs of
                              silent flows *)
  epoch_source : epoch_source;
  admission : admission option;  (** [None] disables admission control *)
  flow_idle_timeout : float;  (** forget per-flow state after this much
                                  silence *)
  max_tracked_flows : int;  (** hard cap on [Flow_tracker] entries;
                                enforced by idle-first/LRU eviction at
                                insert time *)
  guard : guard option;  (** [None] disables the overload guard (the
                             tracker cap still holds) *)
}

val default_admission : admission

val default_guard : guard
(** Test hook: the guard {!with_guard} installs by default, which the
    validation tests perturb: trip_after 0.25 s, clear_after 1 s, min_dwell 1
    s, recovery_dwell 1 s, waiting_high 64. *)

val default : capacity_pkts:int -> capacity_bps:float -> t
(** No admission control; estimated epochs; recovery share 0.25;
    NewFlow cap = capacity/4; max_tracked_flows 65536; no guard. *)

val with_admission : capacity_pkts:int -> capacity_bps:float -> t
(** {!default} plus {!default_admission}. *)

val with_guard : ?guard:guard -> max_tracked_flows:int -> t -> t
(** Enable the overload guard with a (validated) tracker cap. [guard]
    defaults to {!default_guard}; only tests pass another, to check
    the validation.
    @raise Invalid_argument on a cap < 1 or nonsensical guard fields
    (negative dwells, [clear_after <= 0], [waiting_high < 1]). *)

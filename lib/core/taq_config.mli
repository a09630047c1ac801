(** TAQ middlebox configuration.

    Defaults follow the paper: pthresh = 0.1 (the model's tipping
    point), flows treated as over-penalized beyond 2 drops in an epoch,
    a capacity-limited recovery queue, and a capped NewFlow queue used
    for admission control. The record holds what some experiment
    varies, plus two fields no experiment varies: [tick_interval],
    which the benchmark's tracker-replay probe reads, and
    [flow_idle_timeout], which the tracker's reference test varies.
    What nothing varies is a constant in the module that reads it: the
    slow-start epochs in {!Flow_tracker}, the admission timers in
    {!Admission}, the guard's dwells and thresholds in {!Overload}. The
    fair share is the equal split across active flows
    ({!Flow_tracker.fair_share_bps}). *)

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
}
(** Flow-pool admission control (§4.3). The rest of its tuning is
    fixed in {!Admission}. *)

type t = {
  capacity_pkts : int;  (** total buffer across all TAQ queues; the
                            NewFlow queue holds at most a quarter of it
                            (at least 2 packets) *)
  capacity_bps : float;  (** bottleneck rate (known to the operator,
                             §4.4: TAQ nodes are aware of the
                             available bandwidth) *)
  recovery_share : float;  (** cap on the recovery queue's share of the
                               link, preventing the all-retransmission
                               collapse of §3.2 *)
  overpenalize_drops : int;  (** drops within an epoch beyond which a
                                 flow moves to the OverPenalized queue
                                 (§4.2: "more than 2") *)
  tick_interval : float;  (** housekeeping period for rolling epochs of
                              silent flows. No program sets it; it
                              stays a field because the benchmark's
                              tracker-replay probe ([bench/perf])
                              reads it (ROADMAP item 10). *)
  epoch_source : epoch_source;
  admission : admission option;  (** [None] disables admission control *)
  flow_idle_timeout : float;  (** forget per-flow state after this much
                                  silence. No program sets it; it stays
                                  a field because the tracker's
                                  differential test varies it against
                                  its reference model. *)
  max_tracked_flows : int;  (** hard cap on [Flow_tracker] entries;
                                enforced by idle-first/LRU eviction at
                                insert time *)
  guard : bool;  (** the overload guard ({!Overload}); [false] disables
                     it (the tracker cap still holds) *)
}

val default : capacity_pkts:int -> capacity_bps:float -> t
(** No admission control; estimated epochs; recovery share 0.25;
    max_tracked_flows 65536; no guard. *)

val with_admission : capacity_pkts:int -> capacity_bps:float -> t
(** {!default} plus admission control at [pthresh = 0.1]. *)

val with_guard : max_tracked_flows:int -> t -> t
(** Enable the overload guard with a (validated) tracker cap.
    @raise Invalid_argument on a cap < 1. *)

(** The TAQ middlebox assembled as a {!Taq_net.Disc.t} queue
    discipline: flow tracking and classification on enqueue, the
    5-queue / 3-level scheduler on dequeue, push-out buffer management,
    and (optionally) flow-pool admission control on SYNs.

    TAQ reads only what a middlebox can see: packet flow/pool ids,
    kinds, sizes and sequence numbers. Retransmissions are inferred
    from sequence numbers; epochs are estimated from packet timing
    (unless the config selects the oracle ablation). *)

type t

type stats = {
  enqueued : int;  (** packets accepted into some queue *)
  dropped : int;  (** total drops, all causes *)
  admission_rejected : int;  (** SYNs refused by admission control *)
  forced_recovery_drops : int;
      (** retransmissions dropped because every queue was full — the
          "inevitable" case of §4.1 *)
  restarts : int;  (** {!restart} invocations (fault injection) *)
  drops_by_class : (Taq_queues.class_ * int) list;
}

val create :
  ?check:Taq_check.Check.t ->
  ?obs:Taq_obs.Obs.t ->
  sim:Taq_engine.Sim.t ->
  config:Taq_config.t ->
  unit ->
  t
(** [check] defaults to the simulator's checker; the [Core] group
    verifies class-sum vs aggregate packet/byte accounting, buffer
    occupancy bounds, recovery-queue ordering, and flow-tracker /
    admission entry counts after every operation. [obs] defaults to the
    simulator's observability instance and receives the labeled
    [taq.drop.<class>], [taq.transition.<from>_to_<to>],
    [taq.admission_rejected] and [taq.restarts] counters (plus trace
    instants for restarts and class moves when tracing). *)

val disc : t -> Taq_net.Disc.t
(** The discipline to install on a {!Taq_net.Link}. *)

val restart : t -> unit
(** Simulate a middlebox restart (fault injection): the flow tracker —
    including every per-flow epoch estimator — and the admission
    controller are rebuilt empty, as after a reboot of the TAQ box.
    Queued packets survive in the data plane (so link conservation
    holds across the restart); every flow is re-learned and
    re-classified from its next packet, starting over as New_flow. *)

val tracker : t -> Flow_tracker.t

val admission : t -> Admission.t option

val guard : t -> Overload.t option
(** The overload guard, when [config.guard] is set. Sampled at every
    housekeeping tick; while it reports [Degraded] the discipline
    bypasses classification, admission, the NewFlow cap and push-out,
    queueing every packet FIFO into BelowFairShare with plain
    tail-drop (per-flow {e observation} continues, bounded by
    [max_tracked_flows], so classification resumes seamlessly on
    recovery). The [Guard] check group asserts the tracked-flows cap,
    dwell-respecting transitions, and packet conservation across mode
    switches. *)

val queues : t -> Taq_queues.t
(** Test hook: the class queues, whose occupancy tests read. *)

val stats : t -> stats

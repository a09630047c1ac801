(** The packet/fluid coupling layer: drives a {!Model} as ordinary
    simulator events and splices it into a live bottleneck {!Link}.

    Each fixed step (scheduled with [Sim.every], so ticks interleave
    deterministically with packet events):

    + the packet side is {e measured}: deltas of the link's
      offered/dropped/transmitted counters over the last step give the
      foreground throughput (which bounds the service rate available
      to the fluid aggregate) and the disc's current drop/mark
      probability (the loss feedback — droptail, RED and a
      TAQ-degraded-to-droptail disc all feed back through the same
      observable);
    + the {!Model} advances one [dt] under those inputs;
    + the fluid pushes back: {!Taq_net.Link.set_background_bps} is set
      to the rate the aggregate actually drained (capped at
      [max_share]·capacity), so foreground packets transmit at the
      residual rate exactly as they would behind real cross-traffic.

    Both couplings read the {e previous} step's measurement — the
    standard quasi-stationary approximation, valid while [dt] is small
    against the RTT.

    Observability: deterministic [fluid.*] counters (ticks, arrived /
    served / dropped bytes, modeled flows) and a backlog-peak gauge.
    Invariants (check group [Fluid]): backlog within [0, buffer],
    window within its clamp, and conservation of fluid bytes —
    arrived = served + dropped + backlog — verified every tick. *)

type t

val attach :
  ?check:Taq_check.Check.t ->
  ?obs:Taq_obs.Obs.t ->
  ?filter:Shared_loss.t ->
  sim:Taq_engine.Sim.t ->
  link:Taq_net.Link.t ->
  params:Model.params ->
  until:float ->
  unit ->
  t
(** Create the model and schedule its ticks every [params.dt] up to
    [until] (pass [Float.infinity] to tick for as long as the
    simulation runs). [check]/[obs] default to the simulator's
    instances, so an env-wide checker sees the fluid invariants too.
    [filter] is the reverse loss coupling: each tick its drop
    probability is set to the step's shared-overflow fraction, and its
    drops are subtracted from the disc-feedback measurement (they are
    the fluid's own congestion echoed back, not the disc's verdict). *)

val model : t -> Model.t

val report : t -> string
(** One-line summary for CLI output, e.g.
    ["fluid: flows=5000 ticks=400 arrived=12.3MB dropped=1.2% w=2.31 backlog=4500B"]. *)

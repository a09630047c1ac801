(** The fault-scenario drill: run one {!Taq_fault.Scenarios} plan (or
    any ad-hoc plan) against a standard finite-flow dumbbell workload
    and assert the recovery properties the registry promises —

    - every TCP flow eventually completes (no flow is stuck in
      perpetual RTO backoff after the fault horizon);
    - the plan injected a non-zero number of faults (counters prove
      injection happened — a scenario that silently no-ops is a bug);
    - after a middlebox restart, TAQ re-learns and re-classifies the
      surviving flows (state was demonstrably lost, then rebuilt);
    - for flood plans ([Plan.has_flood]): the overload guard trips
      into Degraded, the flow tracker never exceeds its cap, and the
      guard returns to Normal with per-flow state intact after the
      flood — the full graceful-degradation arc. Flood drills enable
      the guard (cap 256) and admission control on the TAQ config.

    Deterministic: the whole drill derives from [seed]; equal seeds
    give byte-identical outcomes under any jobs count, so drills can
    fan out over a {!Taq_harness.Pool}. Used by [taq_sim faults], the
    CI fault job and the fault test-suite. *)

type outcome = {
  scenario : string;
  queue : string;
  flows : int;
  completed : int;  (** flows that finished by the end of the run *)
  injected : int;  (** total applied fault events *)
  restarts : int;
  tracked_before_restart : int;
      (** TAQ flows tracked just before the last restart (0 when the
          plan has no restart or the queue is not TAQ) *)
  tracked_at_end : int;
      (** TAQ flows tracked when the run ended — must be re-learned
          state if a restart happened *)
  degraded_entered : int;  (** guard Normal/Recovering -> Degraded edges *)
  degraded_exited : int;  (** guard Degraded -> Recovering edges *)
  peak_tracked : int;
      (** tracker high-water mark — must stay ≤ [tracker_cap] under
          flood plans *)
  tracker_cap : int;  (** 0 when the run had no guard *)
  guard_mode : string;  (** final mode name, ["-"] without a guard *)
  recovery : (string * string) list;
      (** per-metric time-to-recover strings from the resilience
          monitor (metric name -> seconds / ["no_recovery"] / ["-"]),
          in {!Taq_resil.Monitor.metric_names} order; empty when no
          [--resil] policy was installed *)
  ok : bool;
  problems : string list;  (** empty iff [ok] *)
}

val flood_guard_cap : int
(** 256 — the [max_tracked_flows] cap flood drills (and the matrix's
    flood cells) configure on TAQ's overload guard. *)

val disc_of_string : string -> (string, string) result
(** {!Common.disc_of_string} for a drill grid, which rejects taq+ac:
    {!run} chooses TAQ's admission control and guard from the plan
    itself, so a taq+ac drill would only repeat the taq one. *)

val run :
  scenario:string ->
  plan:Taq_fault.Plan.t ->
  queue:Common.queue ->
  ?flows:int ->
  ?segments:int ->
  ?duration:float ->
  ?seed:int ->
  unit ->
  outcome
(** Defaults: 8 flows of 400 segments, 90 s horizon, seed 1; only
    tests pass a smaller workload or horizon. The bottleneck is always
    400 kbit/s with a 0.1 s RTT. The workload keeps the
    bottleneck busy for ≈ 32 s of ideal transfer time, so every
    registry fault window (all end by t = 20 s) sees live traffic,
    with generous slack to finish after [Taq_fault.Plan.horizon]. *)

val print : outcome list -> unit
(** Table of outcomes through the {!Taq_util.Out} sink. *)

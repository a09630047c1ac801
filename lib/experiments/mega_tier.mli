(** The mega tier: a million modeled background flows, sharded across
    the harness Domain pool.

    By symmetry of the mean-field limit, a system of [N] flows through
    a bottleneck of capacity [C] factors into [S] independent
    sub-systems of [N/S] flows and [C/S] capacity each. Each shard is
    one {!Taq_harness.Task}: it streams its slice of the cohort out of
    the constant-memory {!Taq_workload.Mega} generator, folds it to a
    population digest, runs a hybrid environment (a small packet-level
    foreground cohort over the shard's bottleneck, the digest driving
    a {!Taq_fluid} aggregate), and reports its ledger. Shard results
    merge in index order, so the totals — and every [fluid.*] counter
    — are byte-identical at any [--jobs] count.

    With [jobs = 1] and no cache, shards run in-process via
    {!Taq_harness.Task.run} (no domains, no per-task collectors), so a
    caller's own obs collector — the registry target's — sees the
    counters directly; otherwise they run through
    {!Taq_harness.Durable} on the pool and the per-shard snapshots come
    back in {!result.obs_snaps} for the caller to merge. *)

type params = {
  total_flows : int;  (** modeled background population across all shards *)
  shards : int;
  capacity_bps : float;  (** aggregate bottleneck capacity, split across shards *)
  fg_flows : int;  (** packet-level foreground flows per shard *)
  rtt : float;  (** base RTT: cohort lognormal centre and foreground RTT *)
  duration : float;
  buffer_rtts : float;
  dt : float;
  seed : int;  (** cohort seed (folded into every shard's task key) *)
}

val quick : params
(** The CI/bench scale: the full 10⁶-flow population over a short
    horizon. *)

val default : params
(** Longer horizon, more shards. *)

type shard_result = {
  shard : int;
  summary : Taq_workload.Mega.summary;
  fluid_arrived_bytes : float;
  fluid_dropped_bytes : float;
  fg_jain : float;
  fg_loss : float;
  utilization : float;
}

type result = {
  params : params;
  shard_results : shard_result list;  (** in shard order *)
  cohort : Taq_workload.Mega.summary;  (** merged digest of all shards *)
  obs_snaps : Taq_obs.Obs.snapshot list;
      (** per-shard obs snapshots in shard order; empty when
          [jobs <= 1] without a cache (counters went to the caller's
          collector) *)
  served_shards : int;
      (** shards served from their checkpoints instead of recomputed *)
}

exception Interrupted
(** Raised (after completed shards are checkpointed) when cooperative
    cancellation fires mid-run; the caller prints a note and exits with
    {!Taq_harness.Pool.cancelled_exit_code}. *)

val run : ?jobs:int -> ?cache:Taq_harness.Cache.t -> params -> result
(** Execute all shards (default [jobs = 1]).

    With [cache] the shards run through {!Taq_harness.Durable}: every
    completed shard is checkpointed (its {!shard_key} task's payload is
    the shard result in hex-float wire form) as it finishes, and shards
    the cache holds are served instead of recomputed, counted in
    {!result.served_shards}. The merged cohort, per-shard table and
    counter totals are byte-identical to an uninterrupted run because
    shards merge in index order. A run with a cache always goes through
    the pool, even at [jobs = 1], so per-shard snapshots exist to
    store.

    @raise Interrupted
      if cooperative cancellation fired mid-run (completed shards are
      already checkpointed; a rerun recomputes only the rest).
    @raise Failure
      if any shard fails, or if the generated cohort does not cover
      exactly [total_flows] flows. *)

val print : result -> unit
(** Per-shard table and cohort totals through the {!Taq_util.Out}
    sink. *)

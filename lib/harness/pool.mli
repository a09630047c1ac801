(** A supervised Domain worker pool for embarrassingly parallel sweeps.

    [run ~jobs tasks] executes every task exactly once and returns the
    results in the order of the input list, regardless of which worker
    finished first. [jobs <= 1] degrades to a plain in-process
    sequential loop (no domains spawned), which is both the fallback
    for single-core machines and the reference behaviour the parallel
    path is tested against: because task seeds derive from task keys
    and tasks share no mutable state, [run ~jobs:4] must produce
    results identical to [run ~jobs:1].

    Internally the pool is a closeable work queue (Mutex + Condition)
    drained by [min jobs n] domains, each supervised on join: a worker
    that dies of an escaped exception is respawned (up to a budget)
    instead of silently shrinking the pool. *)

type 'a result = {
  key : string;  (** the task's key *)
  value : ('a, string) Stdlib.result;
      (** [Error] carries [Printexc.to_string] of a task that raised,
          a ["timed out after Ns"] message, ["cancelled"] for a task
          skipped by cooperative cancellation, or ["lost: ..."] for a
          task whose worker died with no respawn budget left; one
          failing or hung task does not take down the sweep *)
  elapsed_s : float;
      (** the task's own wall-clock seconds, across all attempts *)
  attempts : int;
      (** attempts made (1 = succeeded/failed first try; 0 = never
          executed: cancelled or lost) *)
  timed_out : bool;  (** the final attempt ended at the deadline *)
  obs : Taq_obs.Obs.snapshot;
      (** observability snapshot of the final attempt (empty on
          timeout, or when no obs policy is installed). Each attempt
          runs under its own collector ([Taq_obs.Obs.collecting]), so
          summing these per-task snapshots in input order yields
          totals independent of [jobs] *)
}

val run :
  ?obs:Taq_obs.Obs.t ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_cap_s:float ->
  ?on_done:(completed:int -> total:int -> 'a result -> unit) ->
  'a Task.t list ->
  'a result list
(** Execute all tasks; results are input-ordered. [on_done] is a
    progress hook invoked under the pool's lock as each task finishes
    (safe to print from — and safe to raise from: the lock is released
    via [Fun.protect], the exception kills only that worker, and
    supervision respawns it). Default [jobs] is 1. [obs] (default
    [Taq_obs.Obs.off]) receives the pool's own infrastructure counters
    below.

    Resilience knobs:
    - [timeout_s]: per-task deadline. The attempt body runs on a
      dedicated domain while the worker polls its completion against
      the deadline (exponentially backing off from 0.5 ms to 20 ms);
      on expiry the result is [Error "timed out ..."] with
      [timed_out = true] and the worker moves on. OCaml domains
      cannot be killed, so the runaway attempt is abandoned (it dies
      with the process) — the cost of one hung task is one idle
      domain, never a poisoned sweep.
    - [retries] (default 0): failed or timed-out attempts are retried
      up to this many times, sleeping
      [min backoff_cap_s (backoff_s · 2^(attempt-1))] (defaults
      [backoff_s = 0.05], [backoff_cap_s = 2.0]; only tests pass
      shorter ones) between attempts;
      after the budget is exhausted the task is quarantined as
      [Error].
    - Respawns: as many replacement workers as there are workers may
      be spawned over the pool's lifetime when workers die of escaped
      exceptions. Deaths and respawns surface as the
      [pool.worker_deaths] / [pool.workers_respawned] obs counters; a
      task lost to a dying worker (popped but never recorded) is
      filled in as [Error "lost: ..."] and counted in
      [pool.tasks_lost].

    Cancellation: once {!request_cancel} fires (typically from the
    signal handler installed by {!install_signal_cancellation}),
    workers finish their in-flight task and mark every remaining task
    [Error "cancelled"] with [attempts = 0] — the run still returns a
    complete, input-ordered result list for partial reporting. *)

(** {2 Cooperative cancellation} *)

val request_cancel : unit -> unit
(** Test hook: what the signal handler does, without a signal. Ask all running
    pools to stop picking up new tasks. In-flight tasks complete; queued tasks
    come back as ["cancelled"]. *)

val reset_cancel : unit -> unit
(** Test hook: clear the flag (tests; a CLI serving multiple runs). *)

val install_signal_cancellation : ?label:string -> unit -> unit
(** Route SIGINT/SIGTERM to cooperative cancellation: the first signal
    sets the cancel flag and prints a note mentioning [label]; a
    second signal exits immediately with code 131. Call
    once from the main domain before running pools. *)

val cancelled_exit_code : int
(** 130 — the conventional exit code a cancelled run should exit with
    after printing its partial report. *)

val cancelled : 'a result -> bool
(** The task was skipped by cooperative cancellation (never executed). *)

val value_exn : 'a result -> 'a
(** The task's value, or [Failure] re-raising the recorded error. *)

val status : 'a result -> string
(** Human-readable status: ["ok"], ["ok (retried xN)"], ["timeout"],
    ["timeout (N attempts)"], ["error: msg"],
    ["error (N attempts): msg"], ["cancelled"] or ["lost: ..."]. *)

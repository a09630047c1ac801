(** A Domain worker pool for embarrassingly parallel sweeps.

    [run ~jobs tasks] executes every task once and returns the results
    in the order of the input list, regardless of which worker finished
    first. [jobs <= 1] degrades to a plain in-process sequential loop
    (no domains spawned), which is both the fallback for single-core
    machines and the reference behaviour the parallel path is tested
    against: because task seeds derive from task keys and tasks share
    no mutable state, [run ~jobs:4] must produce results identical to
    [run ~jobs:1].

    Internally [min jobs n] domains (for [n > 1] tasks) take task
    indices from one atomic counter over the task array; the pool
    spawns no other domain. There is no deadline and no second
    attempt: a task is a deterministic function of its key, so it
    would fail or hang the same way again. *)

type 'a result = {
  key : string;  (** the task's key *)
  value : ('a, string) Stdlib.result;
      (** [Error] carries [Printexc.to_string] of a task that raised,
          or ["cancelled"] for a task skipped by cooperative
          cancellation; one failing task does not take down the sweep *)
  elapsed_s : float;  (** the task's own wall-clock seconds *)
  obs : Taq_obs.Obs.snapshot;
      (** observability snapshot of the task (empty when no obs policy
          is installed, or when it was cancelled). Each task runs under
          its own collector ([Taq_obs.Obs.collecting]), so summing
          these per-task snapshots in input order yields totals
          independent of [jobs] *)
}

val run :
  ?jobs:int ->
  ?on_done:(completed:int -> total:int -> 'a result -> unit) ->
  'a Task.t list ->
  'a result list
(** Execute all tasks; results are input-ordered. [on_done] is a
    progress hook invoked under the pool's lock as each task finishes,
    so it is safe to print from. Default [jobs] is 1.

    An exception raised by [on_done] ends the worker that called it;
    the other workers go on taking tasks, and [run] re-raises the
    first such exception once every worker has been joined. At
    [jobs = 1] the one worker is the caller, so nothing runs after the
    task whose [on_done] raised.

    Cancellation: once {!request_cancel} fires (typically from the
    signal handler installed by {!install_signal_cancellation}),
    workers finish their in-flight task and mark every remaining task
    [Error "cancelled"] — the run still returns a complete,
    input-ordered result list for partial reporting. *)

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
(** Human-readable status: ["ok"], ["error: msg"] or ["cancelled"]. *)

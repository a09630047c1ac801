(** Task keys: the full identity of one cached run. A key is at once
    the result-cache key and the seed source ({!Taq_harness.Task}), so
    every parameter that changes a run's output is in it, and a key
    must print byte-equal across releases for old result directories to
    keep serving hits.

    One printer renders the run-spec part of every key, in this order:
    [/faults=<canonical plan>] for a non-empty plan, [/guard=<cap>],
    then [/resil=]{!Taq_resil.Monitor.slo}. The check and obs policies
    never enter a key: they do not change what a run prints. *)

val sweep :
  queue:string ->
  capacity:float ->
  fair_share:float ->
  rtt:float ->
  duration:float ->
  buffer_rtts:float ->
  rep:int ->
  ?guard_cap:int ->
  Run_spec.t ->
  string
(** A classic sweep point:
    [sweep/v1/queue=Q/cap=C/fs=F/rtt=R/dur=D/buf=B/rep=N] plus the
    run-spec part. *)

val matrix :
  disc:string ->
  tcp:string ->
  workload:string ->
  fault:string ->
  ?guard_cap:int ->
  unit ->
  string
(** A matrix cell: [matrix/v1/disc=D/tcp=T/wl=W], then [/fault=F]
    unless [fault] is ["none"] (so the fault axis never reseeds the
    fault-free cells), then the run-spec part. A cell owns its fault
    plan and always runs the resilience monitor, so only the guard can
    appear there. *)

val faults : scenario:string -> queue:string -> string
(** A fault drill: [faults/v1/<scenario>/queue=<queue>]. *)

(** Perf-observability layer: deterministic counters + optional traces.

    A run's [--obs] {!policy} is part of its run spec
    ([Taq_experiments.Run_spec]); {!of_policy} turns it into one
    instance per environment. All mutable state lives in the instance,
    never in globals, so instances are domain-safe by construction;
    every hot-path hook is guarded by a single [t.enabled] branch, so a
    disabled instance costs one load+compare and writes nothing.

    Counters are {e deterministic}: under fixed seeds the same
    simulation produces bit-identical counter values on any machine,
    any jobs count, any scheduling order — which is what lets
    [bench --compare] gate on them exactly, where wall-clock can only
    be gated within a tolerance. Noisy measurements (GC words) are
    carried separately in the snapshot and never gated exactly.

    Aggregation: {!of_policy} instances register with the current
    {e collector} — per-task (installed by [Harness.Pool] via
    {!collecting}) or the process-global root. Integer counters are
    summed, so per-task snapshots fold to identical totals for
    [--jobs 1] and [--jobs 4]. *)

(** {1 Fixed counters} — hot-path counters with precomputed indices. *)

type counter =
  | Events_scheduled  (** [Sim.schedule]/[schedule_after] calls *)
  | Events_executed  (** events whose action actually ran *)
  | Events_skipped  (** events popped after cancellation *)
  | Heap_push
  | Heap_pop
  | Link_offered
  | Link_transmitted
  | Link_dropped
  | Link_bytes_tx

type gauge = Heap_max_depth

val counter_name : counter -> string
val gauge_name : gauge -> string

(** {1 Instances} *)

type t

val off : t
(** The shared disabled instance: never mutated, zero-cost. *)

val create : ?trace_capacity:int -> ?tracing:bool -> unit -> t
(** A fresh enabled instance that registers with no collector, for
    tests and embedders that snapshot it themselves.
    [tracing] (default false) attaches a {!Trace} ring. *)

val enabled : t -> bool
(** The hot-path guard: branch on this before composing labels or
    other per-event work. *)

val tracing : t -> bool

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val gauge_max : t -> gauge -> int -> unit

val labeled : t -> string -> int -> unit
(** [labeled t name n] adds [n] to the dynamically named counter
    [name] (e.g. ["disc.taq.drop"]). No-op when disabled. *)

val labeled_gauge_max : t -> string -> int -> unit
(** [labeled_gauge_max t name v] raises the dynamically named gauge
    [name] to at least [v] (e.g. ["guard.degraded_dwell_ms"]). Labeled
    gauges travel in the snapshot [gauges] list and merge with [max],
    like fixed gauges. No-op when disabled. *)

val labeled_ref : t -> string -> int ref
(** Pre-resolve a labeled counter to its cell, hoisting the hash
    lookup out of a hot loop (used by [Taq_queueing.Observed]). On a
    disabled instance returns a fresh throwaway cell. *)

val span :
  t -> name:string -> cat:string -> ?flow:int -> ts_s:float ->
  dur_s:float -> unit -> unit
(** Record a simulation-time span (seconds; converted to µs). No-op
    unless tracing. Guard label construction with {!tracing}. *)

val instant :
  t -> name:string -> cat:string -> ?flow:int -> ts_s:float -> unit -> unit

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;
      (** deterministic; sorted by name, zeros dropped *)
  gauges : (string * int) list;  (** deterministic; merged with [max] *)
  gc_minor_words : float;  (** noisy — never gate exactly *)
  gc_major_words : float;
  events : Trace.event list;
  trace_dropped : int;
}

val empty_snapshot : snapshot
val snapshot : t -> snapshot
val merge : snapshot -> snapshot -> snapshot
val merge_all : snapshot list -> snapshot

val counter_value : snapshot -> string -> int
(** 0 when absent. *)

val gauge_value : snapshot -> string -> int
val counters_to_json : snapshot -> Json.t
val gauges_to_json : snapshot -> Json.t

val snapshot_to_string : snapshot -> string
(** Compact JSON wire form of a snapshot's counters and gauges — the
    deterministic part worth persisting for crash-resumable runs. GC
    word counts (machine noise) and trace events (their own file
    format) are deliberately dropped. *)

val snapshot_of_string : string -> (snapshot, string) result
(** Parse {!snapshot_to_string} output back into a snapshot (counters
    and gauges sorted; GC words zero, no events). Round-trip is exact:
    counter values are integers, which {!Json} prints without a
    decimal point. *)

val report : snapshot -> string
(** Human-readable counter/gauge table. *)

(** {1 Policy} *)

type policy = {
  policy_counters : bool;
  policy_trace : string option;  (** output path for the Chrome trace *)
  policy_trace_capacity : int;
}

val default_trace_path : string

val policy_of_spec : string -> (policy, string) result
(** Parse a [--obs] argument: a comma-separated list of [counters],
    [trace], [trace:PATH] and [off]; the empty string means
    [counters]. [trace] implies [counters]. *)

val of_policy : policy -> t
(** A fresh instance obeying [policy] — registered with the current
    collector — or {!off} when the policy enables nothing. *)

(** {1 Collectors} *)

val collecting : (unit -> 'a) -> 'a * snapshot
(** [collecting f] installs a fresh domain-local collector, runs [f],
    and returns its result together with the merged snapshot of every
    {!of_policy} instance created during [f] on this domain (plus this
    domain's GC-word deltas). Used by [Harness.Pool] around each task
    attempt; nests (the previous collector is restored). *)

val root_snapshot : unit -> snapshot
(** Merged snapshot of {!of_policy} instances created outside any
    {!collecting} scope (main-domain environments, the result cache). *)

val reset_root : unit -> unit
(** Drop root-collector registrations — for tests that aggregate
    repeatedly in one process. *)

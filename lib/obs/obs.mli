(** Perf-observability layer: deterministic counters + optional traces.

    A run's [--obs] {!policy} is part of its run spec
    ([Taq_experiments.Run_spec]); {!of_policy} turns it into one
    instance per environment. All mutable state lives in the instance,
    never in globals, so instances are domain-safe by construction.

    Every counter and gauge is a named cell. A hot path looks its cells
    up once, when its owner is created ({!labeled_ref},
    {!labeled_gauge_ref}), reads {!enabled} once beside them, and then
    guards each update with that one branch: with counters off an
    update costs one load+compare and writes nothing.

    Counters are {e deterministic}: under fixed seeds the same
    simulation produces bit-identical counter values on any machine,
    any jobs count, any scheduling order — which is what lets
    [bench --compare] gate on them exactly. Host-time and allocation
    costs are measured by [bench/perf], not here.

    Aggregation: {!of_policy} instances register with the current
    {e collector} — per-task (installed by [Harness.Pool] via
    {!collecting}) or the process-global root. Integer counters are
    summed, so per-task snapshots fold to identical totals for
    [--jobs 1] and [--jobs 4]. *)

(** {1 Instances} *)

type t

val off : t
(** The shared disabled instance: never mutated, zero-cost. *)

val create : ?tracing:bool -> unit -> t
(** A fresh enabled instance that registers with no collector, for
    tests and embedders that snapshot it themselves.
    [tracing] (default false) attaches a {!Trace} ring; only tests
    pass it, as a run traces through {!of_policy}. *)

val enabled : t -> bool
(** The hot-path guard: branch on this before composing labels or
    other per-event work. *)

val tracing : t -> bool

val labeled : t -> string -> int -> unit
(** [labeled t name n] adds [n] to the dynamically named counter
    [name] (e.g. ["disc.taq.drop"]). No-op when disabled. *)

val labeled_gauge_max : t -> string -> int -> unit
(** [labeled_gauge_max t name v] raises the dynamically named gauge
    [name] to at least [v] (e.g. ["guard.degraded_dwell_ms"]). Gauges
    travel in the snapshot [gauges] list and merge with [max]. No-op
    when disabled. *)

val labeled_ref : t -> string -> int ref
(** Pre-resolve a labeled counter to its cell, hoisting the hash
    lookup out of a hot path: [Taq_engine.Sim], [Taq_net.Link] and
    [Taq_queueing.Observed] look theirs up once, at [create]. On a
    disabled instance returns a fresh throwaway cell. *)

val labeled_gauge_ref : t -> string -> int ref
(** The gauge twin of {!labeled_ref}: the cell of the named gauge,
    which its owner raises to each new maximum itself (as
    [sim.heap_max_depth] is). On a disabled instance returns a fresh
    throwaway cell. *)

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
  events : Trace.event list;
  trace_dropped : int;
}

val empty_snapshot : snapshot
val snapshot : t -> snapshot
val merge_all : snapshot list -> snapshot

val counter_value : snapshot -> string -> int
(** 0 when absent. *)

val gauge_value : snapshot -> string -> int

val snapshot_to_string : snapshot -> string
(** Compact JSON wire form of a snapshot's counters and gauges — the
    deterministic part worth persisting for crash-resumable runs.
    Trace events (their own file format) are deliberately dropped. *)

val snapshot_of_string : string -> (snapshot, string) result
(** Parse {!snapshot_to_string} output back into a snapshot (counters
    and gauges sorted, no events). Round-trip is exact:
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
    {!of_policy} instance created during [f] on this domain. Used by
    [Harness.Pool] around each task attempt; nests (the previous
    collector is restored). *)

val root_snapshot : unit -> snapshot
(** Merged snapshot of {!of_policy} instances created outside any
    {!collecting} scope (main-domain environments, the result cache). *)

val reset_root : unit -> unit
(** Test hook: drop root-collector registrations — for tests that aggregate
    repeatedly in one process. *)

(** Runtime invariant-checking layer.

    A {!t} is a set of toggleable check groups plus per-group counters.
    Instrumented modules hold a [t] (threaded through their [create]
    functions, defaulting to {!off} or to their simulator's checker)
    and guard every hook site with {!on}, so a disabled group costs a
    single [land] + compare and writes nothing — zero-cost when off,
    and domain-safe because all mutable state lives in the instance,
    not in globals. Which groups a run checks is part of its run spec
    ([Taq_experiments.Run_spec]), resolved once per environment. *)

type group =
  | Engine     (** clock monotonicity, event-heap ordering *)
  | Net        (** per-link packet/byte conservation *)
  | Queueing   (** qdisc occupancy / byte-count consistency *)
  | Tcp        (** cwnd/ssthresh floors, scoreboard, SACK blocks, RTO bounds *)
  | Core       (** TAQ class accounting, flow tracker vs admission *)
  | Guard      (** overload guard: tracked-flows cap, hysteresis dwell,
                   cross-mode packet conservation *)
  | Resil      (** resilience monitor: strictly monotone sample clock,
                   baseline frozen before the first injection, samples
                   inside their metric ranges *)

val groups_of_string : string -> (group list, string) result
(** Parse a comma-separated group list, e.g. ["net,tcp"]. ["all"]
    (or [""]) means every group. *)

type mode =
  | Raise  (** first violation raises {!Violation} *)
  | Count  (** violations are counted and their messages retained *)

exception Violation of string

type t

val off : t
(** The shared disabled instance: every group off, never mutated. *)

val create : ?mode:mode -> ?groups:group list -> unit -> t
(** Fresh instance with the given groups enabled (default: all) and
    the given failure mode (default: [Raise]). *)

val on : t -> group -> bool
(** [on t g] — the zero-cost guard. Branch on this before doing any
    work to evaluate an invariant. *)

val require : t -> group -> bool -> (unit -> string) -> unit
(** [require t g cond msg] records one check for group [g]; if [cond]
    is false, records a violation with [msg ()] (raising in [Raise]
    mode). No-op when group [g] is off. *)

val violation : t -> group -> string -> unit
(** Record a violation directly (counts a check too). No-op when off. *)

val checks_run : t -> group -> int
(** Test hook: checks of one group that ran; {!report} shows them only as
    text. *)

val violations : t -> group -> int
(** Test hook: violations recorded for one group. *)

val total_checks : t -> int
(** Test hook: checks run across all groups. *)

val total_violations : t -> int
(** Test hook: violations across all groups. *)

val messages : t -> string list
(** Test hook: retained violation messages, oldest first (capped). *)

val report : t -> string
(** Human-readable per-group summary, e.g. for [taq_sim run --check]. *)

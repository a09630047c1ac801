(** Fault plans: a declarative, seeded description of every adverse
    event a run injects.

    A plan is a list of fault clauses; {!Injector.install} turns it
    into simulator events and delivery-path taps. Determinism
    contract: given one simulated network, one plan and one PRNG
    state, the injected fault sequence is a pure function of the
    event order — re-running the same seed reproduces the run byte
    for byte, under any [--jobs] count, because every probabilistic
    decision draws from the injector's own split PRNG stream and
    every timed decision is a [Sim] event.

    Textual grammar (clauses joined with [';']):
    {v
    flap@T+D              bottleneck link down at T for D seconds
    corrupt@A-B:p=P       each forward packet dropped w.p. P in [A,B)
    dup@A-B:p=P           each forward packet duplicated w.p. P
    reorder@A-B:p=P,delay=D
                          each forward packet held back D seconds
                          w.p. P (later packets overtake it)
    ackdelay@A-B:delay=D  every return-path packet delayed D seconds
    restart@T             middlebox (TAQ) control-state loss at T
    loss:p=P              stationary Bernoulli loss, whole run (the
                          former External_loss wrapper, now a plan)
    flood@T+D:rate=R[,kind=syn|data|pool]
                          adversarial small-packet flood at T for D
                          seconds, mean R brand-new flows/second
                          (kind defaults to syn; see
                          [Taq_workload.Flood])
    brownout@T+D:frac=F   bottleneck link degraded to fraction F of
                          its nominal rate at T for D seconds (F in
                          (0,1); conservation-safe — packets queue
                          behind the slower transmitter)
    jitter@T+D:ms=J       every forward packet delayed by a seeded
                          uniform draw in [0, J] milliseconds at T
                          for D seconds (packets may overtake —
                          that is the jitter)
    v}
    e.g. ["flap@1+2;corrupt@5-20:p=0.05;restart@10"]. *)

type window = { from_ : float; until : float }

type fault =
  | Flap of { at : float; down_for : float }
  | Corrupt of { w : window; p : float }
  | Duplicate of { w : window; p : float }
  | Reorder of { w : window; p : float; delay : float }
  | Ack_delay of { w : window; delay : float }
  | Restart of { at : float }
  | Loss of { p : float }
  | Flood of { at : float; dur : float; rate : float; kind : string }
      (** [kind] is one of {!flood_kinds}; the parser guarantees it *)
  | Brownout of { at : float; dur : float; frac : float }
      (** link rate degraded to [frac] of nominal ([frac] in (0,1)) *)
  | Jitter of { at : float; dur : float; ms : float }
      (** seeded extra per-packet forward delay, uniform in [0, ms] *)

type t = fault list

val of_string : string -> (t, string) result
(** Parse the grammar above. The empty string is the empty (no-op)
    plan. Validation: probabilities in [0, 1], times non-negative,
    windows non-empty, durations positive. *)

val to_string : t -> string
(** Canonical rendering; [of_string (to_string p)] round-trips. Used
    verbatim in sweep task keys, so equal plans hash equally. *)

val horizon : t -> float
(** Time after which the plan injects nothing more: the latest window
    end / flap recovery / restart instant. [infinity] when the plan
    contains a stationary [Loss] clause; [0.] for the empty plan. *)

val first_start : t -> float
(** Earliest instant any clause begins injecting ([0.] for a
    stationary [Loss] clause, [infinity] for the empty plan). The
    resilience monitor freezes its pre-fault baseline here. *)

val spans : t -> (float * float) list
(** Per-clause [(start, end)] fault windows, in plan order: a flap's
    down window, a windowed clause's [A-B] (plus holdback for
    reorder/jitter), a restart's zero-length instant, [(0, infinity)]
    for stationary loss. The resilience monitor tracks peak deviation
    inside the union of these. *)

val check_within : run_until:float -> t -> (unit, string) result
(** Hardening: [Error] (with an actionable message) if any clause's
    window starts at or after [run_until] — such a clause would
    silently inject nothing. [Ok] for infinite horizons. *)

val is_empty : t -> bool

val middlebox_only : t -> bool
(** [true] iff the plan is non-empty and every clause is a
    [Restart] — such a plan injects nothing on a path without a TAQ
    middlebox, so drill grids skip it for the baseline disciplines. *)

val has_flood : t -> bool
(** The plan contains a [Flood] clause — drills use this to enable the
    overload guard on the TAQ config under test. *)

(** Discrete-event simulation core: a clock and an event calendar.

    This is the substrate replacing ns2/ns3's scheduler. Events are
    thunks executed at their scheduled time; within a timestamp they
    run in scheduling order. The clock only moves when events run —
    there is no time stepping.

    Scheduling is allocation-free in steady state: actions live in a
    pooled slot table with a free list, the calendar is a flat
    struct-of-arrays heap, and a {!handle} is an immediate int packing
    the slot index with its generation. Firing or cancelling bumps the
    slot's generation, so a handle held past its event's lifetime is
    merely stale: {!cancel} and {!is_pending} on it are O(1) safe
    no-ops even after the slot has been recycled for a newer event. *)

type t

type handle
(** A scheduled event, usable for cancellation (e.g. TCP retransmission
    timers that are re-armed on every ACK). Handles are generation
    stamped: once the event fires or is cancelled the handle goes
    stale, and a stale handle can never affect the (recycled) slot's
    next occupant. Handles are only meaningful on the simulator that
    issued them. *)

val none : handle
(** A handle that is never pending; {!cancel} on it is a no-op. The
    idle value for timer fields (replaces [handle option], which boxed
    on every re-arm). *)

val create : ?check:Taq_check.Check.t -> ?obs:Taq_obs.Obs.t -> unit -> t
(** A simulator with the clock at 0. [check] (default
    [Taq_check.Check.off]) enables the [Engine] invariant group:
    clock monotonicity and event heap ordering verified on every
    {!step}. [obs] (default [Taq_obs.Obs.off]) receives the
    scheduler counters ([sim.events_*], [sim.heap_*]); components built
    on this simulator default their own observability instance from it
    so one env shares one instance. *)

val check : t -> Taq_check.Check.t
(** The invariant checker this simulator was created with. *)

val obs : t -> Taq_obs.Obs.t
(** The observability instance this simulator was created with. *)

val now : t -> float
(** Current simulation time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when the clock reaches [at]. Raises
    [Invalid_argument] if [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f].
    Negative delays are clamped to 0. *)

val schedule_i : t -> at:float -> (int -> unit) -> int -> handle
(** [schedule_i t ~at f arg] runs [f arg] when the clock reaches [at].
    Semantically [schedule t ~at (fun () -> f arg)], but the argument
    is stored in the event slot, so a caller that reuses one shared
    closure schedules without allocating. [min_int] is reserved as the
    argument (raises [Invalid_argument]). *)

val schedule_after_i : t -> delay:float -> (int -> unit) -> int -> handle
(** [schedule_after_i t ~delay f arg] is
    [schedule_i t ~at:(now t +. delay) f arg]; negative delays are
    clamped to 0. *)

val every : t -> period:float -> until:float -> (unit -> unit) -> unit
(** [every t ~period ~until f] runs [f] at [now + period],
    [now + 2·period], … for every tick at or before [until] — the
    fixed-step coupling hook used by continuous processes (the fluid
    background backend) that must advance as ordinary calendar events
    so they interleave deterministically with packet events. Raises
    [Invalid_argument] on a non-positive [period]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-run, already-cancelled or {!none} handle is a
    no-op: the generation check makes stale handles inert. *)

val is_pending : t -> handle -> bool
(** Whether the handle's event is still scheduled and uncancelled.
    [false] for fired, cancelled, stale (slot recycled) and {!none}
    handles — never a crash. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the calendar is empty or the
    next event is strictly after [until]. When stopping on [until] the
    clock is advanced to [until]. *)

val step : t -> bool
(** Execute exactly the next event; [false] if none remained. *)

val pending_events : t -> int
(** Number of scheduled (possibly cancelled) events — for tests and
    leak hunting. *)

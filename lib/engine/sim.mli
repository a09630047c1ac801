(** Discrete-event simulation core: a clock and an event calendar.

    This is the substrate replacing ns2/ns3's scheduler. Events are
    thunks executed at their scheduled time; within a timestamp they
    run in scheduling order. The clock only moves when events run —
    there is no time stepping.

    Scheduling and firing allocate nothing in steady state: actions
    live in a pooled slot table with a free list, a {!handle} is an
    immediate int packing the slot index with its generation, events
    due at the current instant wait in a FIFO lane, later ones in a
    flat struct-of-arrays heap, and times cross module boundaries in
    float-array cells rather than as (boxed) floats. test_engine pins
    0 minor words per self-rescheduling event. Firing or cancelling
    bumps the slot's generation, so a handle held past its event's
    lifetime is merely stale: {!cancel} and {!is_pending} on it are
    O(1) safe no-ops even after the slot has been recycled for a newer
    event. *)

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
    [Taq_check.Check.off]) enables the [Engine] invariant group, read
    once here: clock monotonicity and heap ordering on every heap pop,
    and on every lane entry that no heap entry is due at or before
    now. [obs] (default [Taq_obs.Obs.off]), also read once, receives
    the scheduler counters: [sim.events_scheduled] per entry filed,
    [sim.events_executed]/[sim.events_skipped] per entry run or found
    cancelled, [sim.heap_push]/[sim.heap_pop] per real heap operation
    (the lane is not the heap). Components built on this simulator
    default their own observability instance from it so one env
    shares one instance. *)

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

(** {1 Re-armable timers}

    A retransmission timer is re-armed on every ACK. As
    [cancel old; schedule_after ~delay f] that is a heap push and a
    later dead pop per ACK; a timer keeps one pending entry instead
    and usually just stores the new deadline. *)

type timer

val timer : t -> timer
(** A disarmed timer on this simulator. *)

val arm : timer -> delay:float -> (unit -> unit) -> unit
(** [arm tm ~delay f] runs [f] once, at [now + delay] (negative delays
    clamped to 0), unless re-armed or disarmed first. Observably it is
    [cancel old; old <- schedule_after t ~delay f] — [f] runs at the
    same instant and in the same order among that instant's events —
    also when called from inside an event, including [f]'s own. What
    differs is the counters: the entry may fire early and re-file
    itself at the deadline, an executed event that runs nothing. *)

val disarm : timer -> unit
(** Cancel the pending deadline, if any. *)

val armed : timer -> bool
(** Whether a deadline is pending: [false] once its action has started
    running, after {!disarm}, and before the first {!arm}. *)

(** {1 Cancellation and running} *)

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
(** Number of calendar entries, heap plus lane, possibly cancelled (a
    timer's pending entry counts) — for tests and leak hunting. *)

(** Discrete-event simulation core: a clock and an event calendar.

    This is the substrate replacing ns2/ns3's scheduler. Events are
    thunks executed at their scheduled time; within a timestamp they
    run in scheduling order. The clock only moves when events run —
    there is no time stepping. Scheduling returns nothing: no caller
    takes an event back, except through a {!type-timer}.

    Scheduling and firing allocate nothing in steady state: actions
    live in a pooled slot table with a free list, events due at the
    current instant wait in a FIFO lane, later ones in three flat
    struct-of-arrays heaps by role (timer deadlines, transmissions,
    everything else) merged in (time, scheduling order), and times
    cross module boundaries in float-array cells rather than as
    (boxed) floats. test_engine pins 0 minor words per
    self-rescheduling event.

    Every time argument is checked: a NaN time, delay, period or
    horizon raises [Invalid_argument] rather than stalling the
    calendar. *)

type t

val create : ?check:Taq_check.Check.t -> ?obs:Taq_obs.Obs.t -> unit -> t
(** A simulator with the clock at 0. [check] (default
    [Taq_check.Check.off]) enables the [Engine] invariant group, read
    once here: clock monotonicity and heap ordering on every heap pop,
    and on every lane entry that no heap entry is due at or before
    now. [obs] (default [Taq_obs.Obs.off]), also read once, receives
    the scheduler counters: [sim.events_scheduled] per entry filed,
    [sim.events_executed]/[sim.events_skipped] per entry run or found
    superseded by a timer's {!arm}, [sim.heap_push]/[sim.heap_pop] per
    real operation on any of the heaps (the lane is not a heap), and
    the gauge [sim.heap_max_depth], the most entries the heaps held
    together. Components built on this simulator default their own
    observability instance from it so one env shares one instance. *)

val check : t -> Taq_check.Check.t
(** The invariant checker this simulator was created with. *)

val obs : t -> Taq_obs.Obs.t
(** The observability instance this simulator was created with. *)

val now : t -> float
(** Current simulation time in seconds. *)

val clock : t -> float array
(** The clock cell: [(clock t).(0)] is {!now}, read without a call.
    Read it, never write it (the other cells are the calendar's). A
    float read from an array the caller holds stays unboxed, where
    {!now}'s result comes back boxed; a component that reads the time
    on every packet keeps this cell instead. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at]. Raises
    [Invalid_argument] if [at] is in the past or NaN. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f].
    Negative delays are clamped to 0; a NaN delay raises
    [Invalid_argument]. *)

val every : t -> period:float -> until:float -> (unit -> unit) -> unit
(** [every t ~period ~until f] runs [f] at [now + period],
    [now + 2·period], … for every tick at or before [until] — the
    fixed-step coupling hook used by continuous processes (the fluid
    background backend) that must advance as ordinary calendar events
    so they interleave deterministically with packet events. Raises
    [Invalid_argument] on a period that is not positive (NaN included)
    and on a NaN [until]. *)

(** {1 Owned slots}

    An action that fires again and again, such as a delay line's
    delivery or a link's transmission completion, can own a calendar
    slot for as long as it may have entries pending. Filing an entry
    on an owned slot stores no closure, and running one frees
    nothing. *)

val own : t -> (unit -> unit) -> int
(** [own t f] takes a slot for [f] and returns it (a non-negative
    int). The slot runs [f] for every entry filed on it until
    {!give_back}. *)

val give_back : t -> int -> unit
(** Return a slot taken by {!own}. No entry may be pending on it: the
    next {!own} or one-shot entry may take it. *)

val hop : t -> int -> delay:float -> unit
(** [hop t slot ~delay] files one entry of [slot]'s action, run as
    [schedule_after t ~delay f] would run it: at [now + delay] and in
    that order among the instant's events. Negative delays are
    clamped to 0; a NaN delay raises [Invalid_argument]. Several
    entries may be pending on one slot. *)

val transmit : t -> int -> delay:float -> unit
(** Same as {!hop}, for a slot that has at most one entry pending at a
    time, such as a link's transmission completion. Such entries are
    kept apart from the many hops and deadlines, so taking one off
    the calendar is cheap. Where an entry is kept changes no order. *)

(** {1 Re-armable timers}

    A retransmission timer is re-armed on every ACK. A timer keeps one
    pending calendar entry however often it is re-armed, and usually
    just stores the new deadline. *)

type timer

val timer : t -> timer
(** A disarmed timer on this simulator. *)

val arm : timer -> delay:float -> (unit -> unit) -> unit
(** [arm tm ~delay f] runs [f] once, at [now + delay] (negative delays
    clamped to 0, NaN raises [Invalid_argument]), unless re-armed or
    disarmed first. Observably, on a calendar that is one list sorted
    by (time, scheduling order), it takes the timer's pending action
    off the list, if it has one, and files [f] as
    [schedule_after t ~delay f] would: [f] runs at that instant and in
    that order among the instant's events. This holds also when [arm]
    is called from inside an event, including [f]'s own. What differs
    is the counters: an entry may fire early and re-file itself at the
    deadline, an executed event that runs nothing, and an entry
    superseded by an earlier deadline stays on the calendar until its
    time, then moves the clock, runs nothing and counts as
    [sim.events_skipped]. *)

val disarm : timer -> unit
(** Take the pending action, if any, off the calendar: it will not
    run. The entry itself stays until its time, as an executed event
    that runs nothing, or is reused by the next {!arm}. *)

val armed : timer -> bool
(** Whether an action is pending: [false] once it has started running,
    after {!disarm}, and before the first {!arm}. *)

(** {1 Running} *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the calendar is empty or the
    next event is strictly after [until]. When stopping on [until] the
    clock is advanced to [until]. A NaN [until] raises
    [Invalid_argument]. *)

val step : t -> bool
(** Test hook: lets a test stop between two events. Execute exactly the next
    event; [false] if none remained. *)

val pending_events : t -> int
(** Test hook: number of calendar entries, heaps plus lane, including entries
    that will run nothing (a timer's pending entry counts) — for tests and
    leak hunting. *)

val slots_in_use : t -> int
(** Test hook: slots taken, by {!own} or by a pending one-shot or timer
    entry — shows that an owner gave its slot back, and that the slot
    table stays bounded. *)

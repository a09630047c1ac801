(** Flow-pool admission control (Section 4.3).

    Activated when the measured loss rate crosses the model's tipping
    point: without it, flows spiral into repetitive timeouts and the
    network performs {e arbitrary} admission control by silence. TAQ
    makes it explicit instead: new flow {e pools} (the inter-related
    connections of one application session) are admitted only while
    the loss rate is below threshold, rejected SYNs are dropped (the
    client's SYN retry keeps the request alive), and a rejected pool
    is guaranteed admission within {!t_wait}.

    Only [pthresh] is configurable. New pools are admitted below
    [pthresh - 0.02] (the paper's "slightly smaller" threshold), and
    the loss signal is an EWMA of weight 0.005 over the packets that
    reach the buffer ({!note_arrival}, {!note_drop}).

    {b Precondition: the clock is monotone.} A pool {!expire} found
    idle stays gone until a SYN admits it again, and the Twait FIFO is
    kept in first-rejection order; both need [now] never to
    decrease. *)

type t

type decision = Admitted | Rejected

val t_wait : float
(** Test hook: 2.5 s, the Twait guarantee (kept under the 3 s SYN retry
    timeout). *)

val pool_expiry : float
(** Test hook: 60 s, after which an idle admitted pool, or a waiting
    pool first rejected that long ago, is forgotten. *)

val create : config:Taq_config.admission -> now:(unit -> float) -> t

val note_arrival : t -> unit
(** A packet was accepted into the buffer (loss-signal 0). The
    discipline feeds every packet that reaches the buffer: data, SYNs
    that passed admission and the NewFlow cap, and control packets.
    SYNs rejected by admission or dropped at the NewFlow cap never
    reach it. *)

val note_drop : t -> unit
(** A packet that reached the buffer was dropped: the arrival itself,
    or a queued packet pushed out for it (loss-signal 1). *)

val loss_rate : t -> float
(** Smoothed drop rate the controller is acting on. *)

val on_syn : t -> key:int -> decision
(** Admission check for a connection attempt belonging to pool [key]
    (callers map pool-less flows to unique negative keys). While the
    loss rate is above threshold, waiting pools are admitted one at a
    time, oldest first, at most one per {!t_wait} — the paper's "after
    a specific wait time, the user is guaranteed admission for one
    flow pool". *)

val touch : t -> key:int -> unit
(** Mark the pool active (data seen), refreshing its expiry. A pool
    {!expire} found idle is not revived. One lookup and one unboxed
    store. *)

val admitted_count : t -> int
(** Admitted pools not found idle by the last {!expire}. O(n). *)

val waiting_count : t -> int
(** Pools currently parked in the wait queue — exposed as a pressure
    signal to the overload guard ({!Overload.sample}). *)

val shed_waiting : t -> unit
(** Drop every waiting pool and empty the Twait FIFO. Called by the
    overload guard on entry to Degraded: while admission is bypassed
    nothing services the wait queue, so its contents are stale soft
    state — shedding it is part of degrading gracefully, and keeps the
    guard's [waiting_count] pressure signal meaningful (a frozen
    pre-flood backlog would otherwise read as perpetual pressure and
    pin the guard in Degraded). Rejected clients keep retrying their
    SYNs, so live pools simply re-queue once admission resumes. *)

val expire : t -> unit
(** Drop admitted pools idle longer than {!pool_expiry}, {e and}
    waiting pools first rejected that long ago (a client that never
    retries its SYN would otherwise occupy [waiting] and the Twait
    FIFO forever). Bounds both tables. Waiters leave from the front of
    the FIFO, O(1) each. An idle admitted pool counts as gone from this
    call on, wherever it is read; its memory is freed by a sweep of the
    admitted table that runs at most once per {!pool_expiry}, so a gone
    pool is held at most that much longer. *)

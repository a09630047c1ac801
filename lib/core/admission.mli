(** Flow-pool admission control (Section 4.3).

    Activated when the measured loss rate crosses the model's tipping
    point: without it, flows spiral into repetitive timeouts and the
    network performs {e arbitrary} admission control by silence. TAQ
    makes it explicit instead: new flow {e pools} (the inter-related
    connections of one application session) are admitted only while
    the loss rate is below threshold, rejected SYNs are dropped (the
    client's SYN retry keeps the request alive), and a rejected pool
    is guaranteed admission within [t_wait]. *)

type t

type decision = Admitted | Rejected

val create : config:Taq_config.admission -> now:(unit -> float) -> t

val note_arrival : t -> unit
(** A data packet was accepted at the queue (loss-signal 0). *)

val note_drop : t -> unit
(** A data packet was dropped at the queue (loss-signal 1). *)

val loss_rate : t -> float
(** Smoothed drop rate the controller is acting on. *)

val on_syn : t -> key:int -> decision
(** Admission check for a connection attempt belonging to pool [key]
    (callers map pool-less flows to unique negative keys). While the
    loss rate is above threshold, waiting pools are admitted one at a
    time, oldest first, at most one per [t_wait] — the paper's "after
    a specific wait time, the user is guaranteed admission for one
    flow pool". *)

val touch : t -> key:int -> unit
(** Mark the pool active (data seen), refreshing its expiry. *)

val admitted_count : t -> int

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
(** Drop admitted pools idle longer than [pool_expiry], {e and}
    waiting pools first rejected that long ago (a client that never
    retries its SYN would otherwise occupy [waiting] and the Twait
    FIFO forever). Bounds both tables. *)

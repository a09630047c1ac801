(** Least-Attained-Service scheduling with per-flow fair dropping.

    LAS (a.k.a. Foreground-Background) always serves the backlogged
    flow that has received the least cumulative service so far — a
    blind approximation of shortest-remaining-processing-time that
    needs no job-size oracle. New and short flows (the paper's mice)
    therefore preempt long-running elephants the moment they arrive,
    which is exactly the small-packet-regime failure mode TAQ targets:
    under LAS a mouse never waits behind an elephant's standing queue.

    The drop policy partitions the buffer per flow rather than
    globally: on overflow the tail of the {e longest} per-flow queue is
    evicted (ties to the lowest flow key), so overflow loss lands on
    the flows holding the most buffer instead of on whoever arrives
    next. Both the scheduler and the dropper are deterministic — no
    PRNG input. *)

val create : capacity_pkts:int -> unit -> Taq_net.Disc.t
(** The per-flow state table holds 1024 flows; beyond that flows share
    attained-service accounting by hash, like {!Drr.create}. *)

(** TAQ's five packet classes and the 3-level hierarchical scheduler
    (Section 4.2).

    - Level 1: the {e Recovery} queue — retransmissions only, served as
      a strict priority queue ordered by the flow's silence length
      (longest silence first), but capacity-limited by a token bucket
      to a configured share of the link so retransmissions cannot
      starve everything else.
    - Level 2: {e NewFlow}, {e OverPenalized} and {e BelowFairShare} at
      equal priority, served longest-queue-first (resources
      proportional to queue demand), ties going to NewFlow and then
      OverPenalized. The NewFlow queue's occupancy cap
      (enforced by the discipline at enqueue) throttles the admission
      rate of new connections.
    - Level 3: {e AboveFairShare}, strictly lowest priority.

    The scheduler is work conserving: when the recovery bucket is out
    of tokens, lower levels are served instead.

    Every class is one packet ring kept sorted by priority, highest
    first, in arrival order among equals; the FIFO classes file every
    packet at priority 0. *)

type class_ =
  | Recovery
  | New_flow
  | Over_penalized
  | Below_fair_share
  | Above_fair_share

val class_to_string : class_ -> string

val all_classes : class_ list
(** Every class, in scheduler-priority order. *)

val class_index : class_ -> int
(** Position in {!all_classes}: 0 to 4, for class-indexed arrays. *)

type t

val create : config:Taq_config.t -> clock:float array -> t
(** [clock.(0)] is the time, read on every dequeue to refill the
    Recovery token bucket: {!Taq_engine.Sim.clock}, or a cell a test
    sets. *)

val enqueue : t -> class_ -> priority:int -> Taq_net.Packet.t -> unit
(** Add to a class queue. [priority] orders the Recovery queue
    (higher = served first; the silence length in epochs); it is
    ignored for FIFO classes. A required int, so the call allocates
    nothing. Capacity checks are the caller's job ({!Taq_disc} decides
    drops). *)

val dequeue : t -> Taq_net.Packet.t option
(** Next packet per the 3-level policy. *)

val total_packets : t -> int

val total_bytes : t -> int

val class_length : t -> class_ -> int

val class_bytes : t -> class_ -> int
(** Byte total of one class, computed by walking the class ring —
    O(queue length); intended for invariant checking against
    {!total_bytes}, not for hot paths. *)

val recovery_sorted : t -> bool
(** Whether the Recovery queue's priorities are non-increasing (they
    must be, by construction) — for invariant checking. *)

val select_victim : t -> class_ option
(** The class a push-out drop should come from: AboveFairShare first,
    then the longest Level-2 queue (ties to NewFlow, then
    OverPenalized), and only if everything else is empty the Recovery
    queue. [None] when all queues are empty. *)

val drop_from : t -> class_ -> Taq_net.Packet.t option
(** Remove the push-out victim of a class: for a FIFO class the most
    recently queued packet of the flow holding the most packets there;
    for Recovery the lowest-priority entry, i.e. the newest
    shortest-silence retransmission. Among equally fat flows of a class
    holding [n] distinct flows, the victim is the flow with the lowest
    [Hashtbl.hash flow land (b - 1)], where [b] starts at 16 and
    doubles while [2b < n]; among those, the flow whose first packet
    there is the newest. That is the order in which a polymorphic
    [Hashtbl] created with 16 buckets lists the flows once they are
    added in queue order. *)

(** Deficit Round Robin (Shreedhar & Varghese 1995): per-flow queues
    served round-robin with a byte quantum, giving near-perfect
    byte-level fairness among backlogged flows at O(1) per packet.

    Included as the strongest classic fair-queuing baseline: in small
    packet regimes it suffers the same limitation the paper notes for
    SFQ — with at most a packet or two per flow buffered, scheduling
    order barely matters and timeout dynamics dominate. *)

val create : ?quantum_bytes:int -> capacity_pkts:int -> unit -> Taq_net.Disc.t
(** [quantum_bytes] defaults to one 500 B packet; only tests pass a
    smaller one, to check byte fairness across packet sizes. The per-flow queue
    table holds 1024 flows; beyond that flows share by hash. On
    overflow the arrival pushes out a packet from the
    longest per-flow queue. *)

(** CHOKe — CHOose and Keep for responsive flows, CHOose and Kill for
    unresponsive flows (Pan, Prabhakar & Psounis, INFOCOM 2000).

    RED's averaged-queue thresholds drive the drop decision, but when
    the average exceeds [min_th] each arrival is first compared against
    one uniformly random queued packet: a flow-id match drops {e both}
    (the matched victim is evicted from the queue and the arrival is
    rejected), which statistically penalizes the flows holding the most
    buffer without any per-flow state. Unmatched arrivals fall through
    to the usual RED probabilistic / forced drop.

    All randomness (victim peek and RED coin) comes from the supplied
    PRNG, so runs are byte-deterministic under a pinned seed. The
    average is a pure packet-count EWMA updated at enqueue — no clock
    input, unlike our RED's idle-decay variant. *)

val create :
  capacity_pkts:int -> prng:Taq_util.Prng.t -> unit -> Taq_net.Disc.t
(** RED's thresholds as our {!Red} defaults them: [min_th] =
    max(1, capacity/4) packets, [max_th] = 3·[min_th], [max_p] = 0.1,
    EWMA weight 0.002. *)

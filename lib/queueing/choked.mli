(** CHOKeD — a fully stateless fair dropper in the CHOKe family
    (after the design in arXiv:1712.09726, "CHOKeD: fair active queue
    management").

    Where CHOKe keeps RED's averaged-queue state, CHOKeD keeps nothing
    between arrivals: the drop decision reads only the instantaneous
    occupancy. Above a threshold fraction of the buffer, each arrival
    draws [candidates] uniformly random queued packets; every candidate
    sharing the arrival's flow id is evicted and the arrival is dropped
    with them (the multi-candidate match is what sharpens the bias
    against buffer-hogging flows). An unmatched arrival at a full
    buffer evicts one uniformly random victim instead of being
    tail-dropped, so heavy flows — who own most slots — absorb most of
    the overflow loss.

    Deterministic under a pinned seed: every draw comes from the
    supplied PRNG. *)

val create :
  capacity_pkts:int -> prng:Taq_util.Prng.t -> unit -> Taq_net.Disc.t
(** The match test arms at half the buffer and draws 2 candidates per
    arrival. *)

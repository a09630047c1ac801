(** CoDel — Controlled Delay AQM (Nichols & Jacobson, ACM Queue 2012).

    CoDel watches each packet's {e sojourn time} (enqueue → dequeue)
    rather than queue length: when the minimum sojourn stays above
    [target] for a full [interval], the discipline enters a dropping
    state and discards packets at service time, shortening the gap
    between drops by the 1/√count control law until the delay falls
    back under target. Because the drops happen inside [dequeue], this
    is the discipline that exercises the {!Taq_net.Disc.t}
    [dequeue_drops] contract — the link collects and accounts the
    victims after every service.

    Arrivals are tail-dropped only at the hard packet capacity. The
    control law is fully deterministic: no PRNG input at all. Default
    [target]/[interval] are scaled for this simulator's regime (500 B
    packets at hundreds of kbit/s mean ~10 ms serialization, so the
    canonical 5 ms/100 ms would drop on every packet). *)

type params = {
  target : float;  (** seconds: acceptable standing sojourn time *)
  interval : float;  (** seconds: window the minimum must exceed it *)
}

val create :
  ?params:params ->
  capacity_pkts:int ->
  now:(unit -> float) ->
  unit ->
  Taq_net.Disc.t
(** [now] supplies the clock for sojourn measurement; typically
    [fun () -> Sim.now sim]. [params] defaults to [target] = 0.05 s and
    [interval] = 0.5 s; only tests pass others. *)

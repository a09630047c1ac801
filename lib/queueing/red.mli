(** Random Early Detection (Floyd & Jacobson 1993).

    Classic RED in packet mode: exponentially averaged queue length,
    probabilistic early drops between [min_th] and [max_th] with the
    inter-drop count correction, forced drops above [max_th]. The
    paper evaluates RED as one of the AQM schemes that do not help in
    small packet regimes (Section 2.4). *)

type params = {
  capacity_pkts : int;
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  max_p : float;  (** drop probability at [max_th] *)
  weight : float;  (** averaging weight w_q *)
}

val create :
  ?params:params ->
  capacity_pkts:int ->
  now:(unit -> float) ->
  prng:Taq_util.Prng.t ->
  unit ->
  Taq_net.Disc.t
(** [now] supplies the clock for the idle-period average decay;
    typically [fun () -> Sim.now sim]. [params] defaults to [min_th] =
    max(1, capacity/4) packets, [max_th] = 3·[min_th], [max_p] = 0.1
    and [weight] = 0.002; only tests pass other thresholds. *)

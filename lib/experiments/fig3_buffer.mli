(** Figure 3: droptail buffer sizes required for restoring fairness.

    For per-flow fair shares of 0.25–1.25 packets/RTT, sweep the
    droptail buffer from 1 to several RTTs of delay and record the
    short-term Jain fairness achieved — reproducing the paper's
    trade-off curve (fairness can be bought with buffers, but the
    price is seconds of queueing delay). The bottleneck runs at 1 Mbps
    with a 400 ms propagation RTT. [queue] swaps the discipline
    under the same sweep — the codel-fig3 bench target reruns the
    whole curve under CoDel to ask how much buffer an AQM that
    controls sojourn time still needs. *)

type params = {
  queue : Common.queue;  (** default {!Common.Droptail} *)
  fair_shares_pkts_per_rtt : float list;
  buffer_rtts : float list;
  duration : float;
  seeds : int list;  (** short-term fairness is averaged over these *)
}

val default : params

val quick : params

type row = {
  fair_share_pkts : float;
  buffer_rtts : float;
  buffer_pkts : int;
  jain_short : float;
  max_queue_delay_s : float;  (** worst-case queueing delay this buffer
                                  can impose *)
}

val run : params -> row list

val print : row list -> unit

val required_buffer : row list -> target_jain:float -> (float * float option) list
(** For each fair share, the smallest swept buffer (in RTTs) reaching
    the target fairness, or [None] if the sweep never reached it. *)

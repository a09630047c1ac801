(** Figure 9: flow evolution under droptail vs TAQ.

    180 long-lived flows share a 600 Kbps bottleneck (200 ms
    propagation RTT, one RTT of buffer); every 5 s window, each live
    flow is classified as Maintained / Dropped / Arriving /
    Stalled from its activity in the previous and current windows. The
    paper's claims: under TAQ the stalled count is nearly zero and the
    maintained count is much higher than under droptail. *)

type params = {
  flows : int;
  duration : float;
  warmup : float;  (** windows before this time are not reported *)
}

val default : params

val quick : params

type result = {
  queue : string;
  series : Taq_metrics.Flow_evolution.series;
  stalled_fraction : float;
  maintained_fraction : float;
  warmup : float;
}

val run : params -> result list

val print : result list -> unit
(** Prints one row per reported window per queue plus the summary
    fractions. *)

(** Ablations of TAQ's design choices (the decisions DESIGN.md calls
    out):

    - recovery-queue capacity cap on/off (Section 4.2: uncapped
      retransmission priority can push most flows into perpetual
      recovery);
    - the OverPenalized queue on/off;
    - middlebox epoch estimation vs oracle RTT;
    - the admission threshold pthresh swept around the model's
      tipping point.

    Each ablation runs the small-packet-regime contention scenario (a
    600 Kbps bottleneck, 200 ms propagation RTT, one RTT of buffer) and
    reports short-term fairness plus utilization (and, for the pthresh
    sweep, web download medians). *)

type params = { flows : int; duration : float }

val default : params

val quick : params

type row = {
  ablation : string;
  variant : string;
  flows : int;  (** contention level of the run *)
  scores : Long_point.row;
}

val run_queue_ablations : params -> row list
(** recovery cap, overpenalized queue, epoch source — each at two
    contention levels (the trade-offs are regime dependent). *)

type pthresh_row = {
  pthresh : float;
  median_download : float;
  p90_download : float;
  completed : int;
  rejected_syns : int;
}

val run_pthresh_sweep : params -> pthresh_row list
(** One row per admission threshold [pthresh] in 0.02, 0.05, 0.1, 0.2
    and 0.4. *)

val print : row list -> unit

val print_pthresh : pthresh_row list -> unit

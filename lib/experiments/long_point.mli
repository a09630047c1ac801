(** One long-flow contention point: [flows] long-lived TCP flows
    through one buffered bottleneck, scored by Jain fairness over 20 s
    slices and over the whole run, utilization and loss. Figures 2, 3,
    8, 9 and 11, the [aqm], [cubic] and [ablate] targets and the CLI's
    [sim] and [sweep] all run this point, so a new score is one field
    here and one column in each printer. *)

type point = {
  queue : Common.queue;
  capacity_bps : float;
  buffer_pkts : int;
  flows : int;
  tcp : Taq_tcp.Tcp_config.t;
  rtt : float;  (** each flow's propagation RTT is drawn within ±10% *)
  duration : float;
  seed : int;
}

type row = {
  jain_short : float;
      (** mean Jain over the 20 s slices after the first (slow start);
          nan when the run has no such slice *)
  jain_long : float;  (** Jain over each flow's bytes for the whole run *)
  utilization : float;
  loss_rate : float;
}

val run : ?attach:(Common.env -> unit) -> point -> Common.env * row
(** Build the env (faults and resilience from the run spec), start
    the flows, run to [duration] and read the row. The order is fixed,
    because the PRNG draws depend on it. [attach] sees the env before
    any flow starts: [sim --pcap] hangs its packet log there. The env
    is returned for what a caller reads beyond the row: flow
    evolution, TAQ and fault reports, resilience rows, counters. *)

val mean : row list -> row
(** The field-wise mean of rows, summed in list order.
    @raise Invalid_argument on an empty list. *)

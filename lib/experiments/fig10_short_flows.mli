(** Figure 10: behaviour of TAQ with short flows.

    A background of long-running flows saturates the bottleneck; short
    flows of 1–80 packets are injected, and their download times are
    measured. Under TAQ (whose NewFlow queue shelters connections in
    slow start) short-flow completion time grows roughly linearly with
    flow length until the flow stops being "short". *)

type params = {
  queues : Common.queue list;
  long_flows : int;
  short_flow_lengths : int list;  (** packets per short flow *)
  warmup : float;  (** let long flows reach steady state first *)
  spacing : float;  (** gap between short-flow injections *)
  timeout : float;  (** give up waiting after this long *)
  repeats : int;
      (** independent runs averaged per point, seeded 29, 30, ... *)
}

val default : params
(** The paper's setting: 1 Mbps, 200 ms RTT, one RTT of buffering, 50
    long flows (20 Kbps fair share), 32 short flows of 1–80 packets,
    TAQ; droptail included for contrast. *)

val quick : params

type row = {
  queue : string;
  packets : int;
  download_time : float;
      (** mean over the repeats; [nan] when any repeat missed the
          timeout *)
}

val run : params -> row list

val print : row list -> unit

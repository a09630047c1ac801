(** Figure 12: object download-time CDFs with admission control.

    Clients browse in a closed loop — a page of six objects over up
    to four connections, an exponential think pause of mean 6 s, the
    next page — offering a sustained overload of the 1 Mbps, 200 ms-RTT
    bottleneck (one RTT of buffering), the regime of the paper's
    peak-load trace replay. Object sizes are drawn from two controlled
    buckets (10–20 KB and 100–110 KB, as in the figure; every fifth
    object from the large one). Per-object download times —
    {e including} connection-setup waiting, so admission-control delay
    is charged — are compared between droptail and TAQ with admission
    control enabled. *)

type params = {
  clients : int;  (** with the think pause, sets the overload level *)
  duration : float;
}

val default : params

val quick : params

type bucket_result = {
  queue : string;
  bucket : string;
  n : int;  (** completed downloads *)
  unfinished : int;
  cdf : Taq_metrics.Cdf.t option;  (** download times; [None] if nothing
                                       completed *)
}

val run : params -> bucket_result list

val print : bucket_result list -> unit
(** Prints quantiles per (queue, bucket) and the paper's headline
    ratios (droptail / TAQ median and worst case). *)

(** Fair-share computation (Section 4.2): TAQ supports the standard
    fair-queuing model (equal split of capacity among active flows, the
    paper's focus) and a proportional model weighted by flow RTTs. *)

type model =
  | Fair_queuing  (** capacity / active flows *)
  | Proportional_rtt
      (** shares proportional to 1/RTT, matching TCP's natural bias so
          that no flow is scheduled against its own clock *)

val per_flow :
  model:model ->
  capacity_bps:float ->
  active_flows:int ->
  flow_epoch:float ->
  mean_epoch:float ->
  float
(** Fair share in bits/second for one flow. With [Proportional_rtt]
    the flow's share is scaled by [mean_epoch /. flow_epoch] (pass 1.0
    for both to get the equal split); [Fair_queuing] ignores both.
    Zero active flows yield the full capacity. Every argument is
    required: an optional one would allocate on each call, and this
    runs on every data packet. *)

val is_below : rate_bps:float -> fair_bps:float -> bool
(** Strictly below its fair share (the BelowFairShare test). *)

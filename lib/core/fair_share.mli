(** Fair-share computation (Section 4.2): the standard fair-queuing
    model, an equal split of capacity among active flows — the paper's
    focus. (§4.2's RTT-proportional shares are not reproduced.) *)

val per_flow : capacity_bps:float -> active_flows:int -> float
(** Fair share in bits/second for one flow: capacity over active
    flows. Zero active flows yield the full capacity. *)

val is_below : rate_bps:float -> fair_bps:float -> bool
(** Strictly below its fair share (the BelowFairShare test). *)

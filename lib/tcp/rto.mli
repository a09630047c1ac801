(** RFC 6298 retransmission-timeout estimation.

    SRTT/RTTVAR smoothing with the standard gains; the backoff
    multiplier itself lives in the sender (it is congestion-control
    state, reset on new measurements per Karn's algorithm). *)

type t

val create : min_rto:float -> max_rto:float -> t
(** Before the first sample, {!timeout} reports the conservative
    initial RTO of 1 s (clamped into [min,max]). *)

val observe : t -> float -> unit
(** Fold in an RTT sample (seconds). *)

val timeout : t -> float
(** Current RTO = srtt + 4·rttvar, clamped. *)

val srtt : t -> float
(** Test hook: smoothed RTT; [nan] before any sample. *)

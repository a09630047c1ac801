(** RFC 6298 retransmission-timeout estimation.

    SRTT/RTTVAR smoothing with the standard gains; the backoff
    multiplier itself lives in the sender (it is congestion-control
    state, reset on new measurements per Karn's algorithm). *)

type t

val max_rto : float
(** Upper bound on every timeout, 60 s (RFC 6298); the sender caps its
    backed-off RTO and its SYN retry interval here too. *)

val create : min_rto:float -> t
(** Before the first sample, {!timeout} reports the conservative
    initial RTO of 1 s (clamped into [min_rto, max_rto]).
    @raise Invalid_argument unless [0 < min_rto <= max_rto]. *)

val observe : t -> float -> unit
(** Fold in an RTT sample (seconds). *)

val timeout : t -> float
(** Current RTO = srtt + 4·rttvar, clamped. *)

val srtt : t -> float
(** Test hook: smoothed RTT; [nan] before any sample. *)

(** TCP parameters.

    Defaults follow the paper's simulation setup: 500-byte on-the-wire
    packets, no delayed acks, ns2-style 200 ms minimum RTO, NewReno by
    default with a SACK variant available. *)

type variant =
  | Reno  (** fast retransmit + simple recovery *)
  | Newreno  (** RFC 6582 partial-ack recovery *)
  | Sack  (** scoreboard-driven selective retransmission *)

type growth =
  | Aimd  (** classic additive increase (1/cwnd per ack) with 1/2
              multiplicative decrease *)
  | Cubic  (** RFC 8312 cubic window growth with beta = 0.7 — the
               stack the paper notes "most TCP flows use", usually
               paired with [init_cwnd = 10] *)

type t = {
  variant : variant;
  growth : growth;  (** congestion-avoidance growth law; loss recovery
                        (the [variant]) is orthogonal *)
  mss : int;  (** payload bytes per data segment *)
  header_bytes : int;  (** overhead per packet; data size = mss (the
                           paper quotes on-the-wire sizes) *)
  ack_bytes : int;  (** size of a pure ack on the return path *)
  init_cwnd : float;  (** initial congestion window, segments *)
  init_ssthresh : float;  (** initial slow-start threshold, segments *)
  dupack_thresh : int;  (** dupacks triggering fast retransmit *)
  min_rto : float;  (** seconds; RFC 6298 allows down to ~0.2 in sims *)
  max_rto : float;
  max_backoff : int;  (** cap on the exponential backoff multiplier *)
  rcv_wnd : int;  (** receiver window, segments *)
  syn_timeout : float;  (** initial SYN retransmission timeout *)
  syn_retry_doubling : bool;
      (** exponential SYN retry backoff (standard); [false] retries
          every [syn_timeout] — the constant-retry client behaviour the
          paper emulates under admission control *)
  max_syn_retries : int;
      (** give up after this many SYN retransmissions; large by
          default (the paper's clients retry until admitted) *)
  use_syn : bool;  (** model the SYN handshake (needed for admission
                       control); when false the flow starts open *)
  delayed_ack : float option;
      (** [Some d]: the receiver acks every second in-order segment, or
          after [d] seconds, per RFC 1122; [None] (the paper's setup)
          acks every packet immediately *)
}

val default : t
(** NewReno recovery, AIMD growth, 500 B packets, init cwnd 2, min RTO
    0.2 s, SYN on. *)

val cubic : t
(** {!default} with CUBIC growth and the modern initial window of 10 —
    the configuration the paper's introduction describes. *)

val of_name : string -> t option
(** Look up a profile by (case-insensitive) name: [newreno]
    ({!default}), [sack] ({!default} with scoreboard-driven SACK
    recovery) or [cubic]. *)

val profile_names : string list
(** The names {!of_name} knows, in that order. *)

val make :
  ?min_rto:float ->
  ?rcv_wnd:int ->
  ?syn_retry_doubling:bool ->
  ?use_syn:bool ->
  unit ->
  t
(** {!default} with overrides. *)

val packet_bytes : t -> int
(** On-the-wire size of a full data segment. *)

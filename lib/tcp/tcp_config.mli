(** TCP parameters.

    The record holds what the experiments vary: recovery, window
    growth, the initial window, the minimum RTO, the receive window
    and the handshake. The rest of the paper's setup is fixed: 460 B
    of payload under a 40 B header (500 B on the wire), 40 B SYNs and
    ACKs, every segment acked at once (no delayed ACKs), fast
    retransmit after 3 duplicate ACKs, an initial slow-start threshold
    of 64 segments, a 60 s maximum RTO ({!Rto.max_rto}), RTO backoff
    capped at 64×, and SYN retries from 3 s, 1000 at most. The sender
    holds the TCP constants; the sizes are exported here. *)

type variant =
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
  init_cwnd : float;  (** initial congestion window, segments *)
  min_rto : float;  (** seconds; RFC 6298 allows down to ~0.2 in sims *)
  rcv_wnd : int;  (** receiver window, segments *)
  syn_retry_doubling : bool;
      (** exponential SYN retry backoff (standard); [false] retries
          every 3 s — the constant-retry client behaviour the paper
          emulates under admission control *)
  use_syn : bool;  (** model the SYN handshake (needed for admission
                       control); when false the flow starts open *)
}

val mss : int
(** Payload bytes per data segment: 460. *)

val header_bytes : int
(** Header bytes per packet: 40, the whole of a SYN, SYN-ACK or ACK. *)

val packet_bytes : int
(** On-the-wire size of a full data segment: {!mss} + {!header_bytes}
    = 500 B, the paper's packet size. *)

val cubic : t
(** The default ({!make} [()]) with CUBIC growth and the modern initial
    window of 10 — the configuration the paper's introduction
    describes. *)

val of_name : string -> t option
(** Look up a profile by (case-insensitive) name: [newreno] (the
    default), [sack] (the default with scoreboard-driven SACK recovery)
    or [cubic]. *)

val profile_names : string list
(** The names {!of_name} knows, in that order. *)

val make :
  ?min_rto:float ->
  ?rcv_wnd:int ->
  ?syn_retry_doubling:bool ->
  ?use_syn:bool ->
  unit ->
  t
(** The default with overrides: NewReno recovery, AIMD growth, init
    cwnd 2, min RTO 0.2 s, a 10{^6}-segment receive window, doubling
    SYN retries, SYN on. *)

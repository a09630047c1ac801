(** Event-driven TCP sender.

    Implements slow start, congestion avoidance, fast retransmit,
    NewReno (RFC 6582) recovery, a SACK scoreboard variant, and
    RFC 6298 retransmission timeouts with exponential backoff (Karn's
    algorithm: backoff collapses only on a valid new RTT sample, i.e.
    a cumulative ack for never-retransmitted data — the behaviour the
    paper's Markov model captures with its repetitive-timeout states).

    Sequence numbers are segment indices; the receiver side is
    {!Tcp_receiver}. *)

type t

type stats = {
  data_sent : int;  (** data packets transmitted, retransmissions included *)
  retx_sent : int;  (** retransmitted data packets *)
  timeouts : int;  (** RTO firings *)
  fast_retransmits : int;  (** recovery episodes entered via dupacks *)
  syn_sent : int;  (** SYN (re)transmissions *)
  max_backoff_seen : int;  (** largest backoff multiplier reached *)
}

type state = Closed | Syn_sent | Established | Complete | Failed

val create :
  sim:Taq_engine.Sim.t ->
  config:Tcp_config.t ->
  alloc:Taq_net.Packet.alloc ->
  flow:int ->
  ?pool:int ->
  total_segments:int ->
  ?close_on_drain:bool ->
  transmit:(Taq_net.Packet.t -> unit) ->
  ?on_complete:(float -> unit) ->
  ?on_fail:(float -> unit) ->
  unit ->
  t
(** [total_segments = max_int] gives a long-running flow.
    [on_complete] fires when every segment has been cumulatively
    acknowledged; [on_fail] when SYN retries are exhausted.
    [close_on_drain = false] keeps the connection open when it runs out
    of data (a persistent HTTP/1.1 connection awaiting its next
    object): it never completes, and takes more data through
    {!append_data}.
    The sender checks with the simulator's checker: the [Tcp] group
    verifies window floors, sequence-space and scoreboard accounting,
    SACK block well-formedness and RTO bounds after every ack and
    timeout. *)

val start : t -> unit
(** Begin the connection (SYN handshake when configured, otherwise the
    flow opens immediately). *)

val append_data : t -> segments:int -> unit
(** Give the sender more application data on an open connection — the
    HTTP/1.1 persistent-connection pattern (the paper's Figure 7 keeps
    a dummy Idle state precisely for flows that are between objects).
    Legal in any state before [Complete]; on a completed connection it
    raises [Invalid_argument] (the flow already closed). If the sender
    was application-limited it resumes transmitting immediately. *)

val on_ack : t -> Taq_net.Packet.t -> unit
(** Deliver a return-path packet (ACK or SYN-ACK). *)

val state : t -> state

val stats : t -> stats
(** Test hook: the sender's counters. *)

val cwnd : t -> float
(** Test hook: the congestion window, in segments. *)

val on_transmit : t -> (Taq_net.Packet.t -> unit) -> unit
(** Listener for every packet this sender puts on the wire. *)

val on_progress : t -> (int -> unit) -> unit
(** Listener for cumulative-ack advances (argument: new snd_una) —
    lets callers track application-level object boundaries on a
    persistent connection. *)

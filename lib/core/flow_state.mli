(** The approximate per-flow state model a TAQ middlebox maintains
    (Figure 7 of the paper).

    Unlike the idealized Markov model, this machine carries no
    transition probabilities: transitions are driven by the four
    per-epoch observables the middlebox tracks — new packets, highest
    sequence progress, retransmissions, and drops it inflicted
    (Section 3.3). The step function is pure so the state logic is
    testable in isolation from the queue. *)

type t =
  | Slow_start  (** significant growth in new packets across epochs *)
  | Normal  (** steady progress, no losses at the TAQ queue *)
  | Loss_recovery  (** the middlebox dropped a packet; expecting
                       retransmissions until the known drops are
                       recovered *)
  | Timeout_silence  (** a silent epoch after drops: the sender is
                         waiting out an RTO *)
  | Timeout_recovery  (** retransmissions after a timeout silence *)
  | Extended_silence  (** multiple silent epochs: repetitive timeout *)
  | Idle  (** the dummy silence state: nothing to send (e.g. waiting
              for the next HTTP request on a persistent connection) *)

val initial : t
(** Flows begin in {!Slow_start}. *)

val step_counts :
  t ->
  new_pkts:int ->
  retx_pkts:int ->
  drops:int ->
  prev_new_pkts:int ->
  outstanding_drops:int ->
  t
(** Advance one epoch, given what the middlebox saw in it: new data
    packets, inferred retransmissions, and drops of this flow at the
    TAQ queue; the previous epoch's new packets; and the drops not yet
    matched by observed retransmissions. The counts are passed one by
    one, so a caller that rolls an epoch builds no record. *)

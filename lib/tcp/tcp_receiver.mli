(** TCP receiver: immediate (non-delayed) cumulative acknowledgements
    with optional SACK blocks, per the paper's simulation setup. *)

type t

val create :
  ?alloc:Taq_net.Packet.alloc ->
  flow:int ->
  ?pool:int ->
  config:Tcp_config.t ->
  now:(unit -> float) ->
  send:(Taq_net.Packet.t -> unit) ->
  unit ->
  t
(** [alloc] is the packet-uid allocator acks are drawn from — pass the
    network's ({!Taq_net.Dumbbell.packet_alloc}) when the receiver is
    wired to one; a standalone receiver (tests) gets a private fresh
    allocator by default.
    [send] transmits acks on the (uncongested) return path: one 40 B
    ACK for every data segment, in order or not, as soon as it
    arrives. *)

val on_packet : t -> Taq_net.Packet.t -> unit
(** Deliver a forward-path packet (SYN or DATA) to the receiver. *)

val cum_ack : t -> int
(** Test hook: next expected segment (= count of in-order segments received).
    *)

val unique_segments : t -> int
(** Test hook: distinct data segments received (in or out of order). *)

val duplicate_segments : t -> int
(** Test hook: redundant deliveries (retransmissions of already-received
    data). *)

val on_segment : t -> (int -> unit) -> unit
(** Listener invoked with the segment index for every {e new} (not
    previously received) data segment — the goodput hook. *)

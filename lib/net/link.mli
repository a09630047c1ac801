(** The bottleneck link: a queue discipline feeding a fixed-capacity
    transmitter. The link has no propagation delay of its own: a
    dumbbell flow's access and return legs carry it ({!Dumbbell}).

    Work-conserving: whenever the transmitter is idle and the
    discipline holds a packet, transmission starts immediately.
    Utilization and drop statistics are tracked here so that every
    experiment measures them identically. *)

type t

type stats = {
  offered : int;  (** packets offered to the queue *)
  bytes_offered : int;  (** bytes offered to the queue *)
  transmitted : int;  (** packets fully transmitted *)
  dropped : int;  (** packets dropped by the discipline *)
  bytes_transmitted : int;
  busy_time : float;  (** seconds the transmitter was busy *)
}

val create :
  ?check:Taq_check.Check.t ->
  ?release:(Packet.t -> unit) ->
  sim:Taq_engine.Sim.t ->
  capacity_bps:float ->
  disc:Disc.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** [deliver] is called when a packet finishes transmission, at its
    completion instant and after the {!on_deliver} listeners, so
    packets arrive in the order they were transmitted. The delivery
    runs where a zero-delay calendar entry filed at the completion,
    before the next transmission starts, would run: inside the
    completion's own event when nothing else is due at that instant
    ({!Taq_engine.Sim.due_now}), and as such an entry otherwise.
    [release] (default absent: no pooling) is the owning
    network's packet-pool hook, called for every drop victim after all
    drop listeners and accounting have observed it — the victim is
    dead at that point and its record may be recycled. [check] (default
    [Taq_engine.Sim.check sim]) enables
    the [Net] group: packet and byte conservation
    ([accepted = transmitted + on_wire + pushed_out + queued]) verified
    after every send and transmission completion. The link counts into
    the simulator's observability instance ([Taq_engine.Sim.obs sim]):
    the [link.*] counters, whose cells it looks up here, and, when
    tracing, a span per transmission and an instant per drop. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the discipline (and kick the transmitter). *)

val set_rate_factor : t -> float -> unit
(** Fault-injection hook (see [Taq_fault]'s [brownout@T+D:frac=F]):
    degrade the transmitter to this fraction of its nominal rate —
    subsequent transmissions take [size / (capacity * factor)]
    seconds. A packet already on the wire keeps its scheduled
    completion. The default factor 1.0 is the exact multiplicative
    identity, so links without an active brownout compute
    bit-identical transmission times. Raises [Invalid_argument] unless
    the factor is in [(0, 1]]. *)

val set_up : t -> bool -> unit
(** Fault-injection hook (see [Taq_fault]): while the link is down the
    transmitter starts no new transmissions — a packet already on the
    wire completes, arrivals keep entering the discipline and queue
    drops are the discipline's, so packet/byte conservation holds
    throughout a flap. Bringing the link back up kicks the
    transmitter. Links start up. *)

val is_up : t -> bool
(** Test hook: whether a fault has the link down. *)

val on_drop : t -> (Packet.t -> unit) -> unit
(** Register a drop listener (called for every packet the discipline
    drops, after internal accounting). Multiple listeners allowed. *)

val on_enqueue : t -> (Packet.t -> unit) -> unit
(** Register a listener for every accepted packet. *)

val on_deliver : t -> (Packet.t -> unit) -> unit
(** Register a listener for every packet completing transmission
    (invoked just before the link's [deliver]). *)

val stats : t -> stats

val utilization : t -> float
(** Fraction of elapsed simulation time the transmitter was busy. *)

val queue_length : t -> int

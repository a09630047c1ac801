(** The dumbbell topology used throughout the paper's evaluation: many
    senders share one bottleneck link toward their receivers; all data
    flows one way (download-centric web browsing), and acknowledgements
    return on an uncongested path.

    Per-flow propagation RTT is split into a sender-side component
    (sender to bottleneck queue) and a return component (receiver back
    to sender); the bottleneck adds queueing plus transmission time, so
    the observed RTT is [rtt_prop + queueing + transmission] exactly as
    in the ns2 setup. *)

type t

val create :
  ?check:Taq_check.Check.t ->
  sim:Taq_engine.Sim.t ->
  capacity_bps:float ->
  disc:Disc.t ->
  unit ->
  t
(** The bottleneck adds no propagation delay of its own: every
    propagation delay is a flow's, given at {!register_flow}. [check]
    defaults to the simulator's checker ([Taq_engine.Sim.check sim])
    and is handed to the bottleneck {!Link} for conservation
    checking. *)

type port
(** A registered flow's two lines, through which its endpoints send. *)

val register_flow :
  t ->
  flow:int ->
  rtt_prop:float ->
  deliver_fwd:(Packet.t -> unit) ->
  deliver_rev:(Packet.t -> unit) ->
  port
(** Declare endpoints for [flow] and return its port. [rtt_prop] is
    the flow's two-way propagation delay excluding the bottleneck's
    transmission and queueing. It becomes the flow's two
    {!Delay_line}s: an access line of [rtt_prop *. 0.25] from the
    sender to the bottleneck queue, and a return line of
    [rtt_prop *. 0.75] back to the sender. Each keeps the flow's
    packets in send order. [deliver_fwd] receives packets that crossed
    the bottleneck (the receiver side), found by the packet's flow id
    at the link's exit; [deliver_rev] receives return-path packets
    (the sender side), straight from the flow's return line. Packet
    records are pooled: a delivery callback must not retain the packet
    past its own return. Raises [Invalid_argument] if the flow is
    already registered. A flow id registered again after
    {!unregister_flow} gets fresh lines: packets still on the old ones
    go where an unregistered flow's go. *)

val unregister_flow : t -> flow:int -> unit
(** Forget a finished flow; a no-op on a flow that is not registered.
    Packets already on its lines still drain: access packets still
    reach the bottleneck, and packets delivered to the forgotten flow
    are discarded (on an untapped path their records are recycled).
    Once drained, each line gives back its calendar slot. *)

val send_fwd : port -> Packet.t -> unit
(** Sender-side transmit of a packet of the port's flow: the packet
    crosses the flow's access line, then the bottleneck queue and
    link, then is delivered forward. Raises [Invalid_argument] once
    the flow is unregistered. *)

val send_rev : port -> Packet.t -> unit
(** Receiver-side transmit (ACKs, SYN-ACKs) of a packet of the port's
    flow: the flow's return line, pure delay, no congestion. Raises
    [Invalid_argument] once the flow is unregistered. *)

type interceptor = Packet.t -> (Packet.t -> unit) -> unit
(** A delivery interposer: receives the packet and the real delivery
    continuation, which it may invoke zero times (corruption/loss),
    once (pass-through or, via {!Taq_engine.Sim.schedule_after},
    delayed/reordered), or several times (duplication). The
    continuation re-resolves the flow's endpoints by the packet's flow
    id at invocation time, on either path, so delayed packets to
    finished flows evaporate as usual. *)

val set_fwd_interceptor : t -> interceptor option -> unit
(** Install (or remove) the forward-path tap, applied after the packet
    has crossed the bottleneck queue and transmitter —
    i.e. "losses beyond the losses at a TAQ queue" (§4.1). Used by the
    fault-injection layer; at most one tap is active. *)

val set_rev_interceptor : t -> interceptor option -> unit
(** Same for the uncongested return path (ACK delay/loss bursts). *)

val packet_alloc : t -> Packet.alloc
(** The network's packet-uid allocator and free list. Everything
    injecting packets into this network (TCP endpoints, tests) draws
    uids from here, so uids are unique per network and no
    process-global state exists. The network recycles records once
    consumed: drop victims after accounting, delivered packets after
    the endpoint callback returns (on untapped paths — a
    fault-injection tap may hold or duplicate packets, so tapped
    deliveries are never released). *)

val next_flow_id : t -> int
(** Allocate the next flow id on this network (1, 2, …). Ids are
    per-network: two simulations running in parallel domains hand out
    independent, deterministic id sequences. *)

val link : t -> Link.t

val sim : t -> Taq_engine.Sim.t

val flow_count : t -> int
(** Test hook: flows currently registered. *)

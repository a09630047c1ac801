(** A pcap-style per-packet event log of a bottleneck link.

    The paper's §2.3 analysis ("upon closer examination in the pcap
    traces ... roughly 30% of the flows are completely shut down")
    works from packet traces; this recorder captures the equivalent
    stream — every enqueue, drop and delivery at a link with its
    timestamp, flow, kind and sequence — and exports it as CSV for
    offline analysis. *)

type event_kind = Enqueued | Dropped | Delivered

type event = {
  time : float;
  kind : event_kind;
  packet_kind : Taq_net.Packet.kind;
  flow : int;
  seq : int;
  size : int;
}

type t

val attach :
  ?capacity:int -> now:(unit -> float) -> Taq_net.Link.t -> t
(** Start recording enqueues, drops and deliveries. [now] supplies
    timestamps (typically [fun () -> Sim.now sim]). [capacity] bounds
    memory (default 1,000,000 events; only tests pass a smaller
    bound); older events are discarded oldest-first once full. *)

val events : t -> event list
(** Test hook: the log itself. Chronological. *)

val count : t -> int

val dropped_events : t -> int
(** Test hook: events discarded because of the capacity bound. *)

val save_csv : t -> path:string -> unit
(** [time,event,packet_kind,flow,seq,size] rows with a header. *)

(** A FIFO stage in which every packet waits the same fixed delay.

    Each dumbbell flow has two lines: its access leg, from the sender
    to the bottleneck queue, and its return leg. (The bottleneck link
    keeps none: it delivers at the end of each transmission, see
    {!Link.create}.) One delay per line is what makes the
    line a FIFO: due times never decrease in send order, and the
    calendar breaks time ties in scheduling order, so packets leave in
    the order they were sent, each exactly [delay] after its {!send}.
    That lets a line keep its packets in a ring and file every
    calendar entry on one slot it owns ({!Taq_engine.Sim.own}):
    sending allocates nothing in steady state, and the delay is never
    boxed per packet. The slot is taken on the first {!send}, so a
    line that never sends holds none, and given back once a closed
    line has drained. *)

type t

val create : Taq_engine.Sim.t -> delay:float -> (Packet.t -> unit) -> t
(** [create sim ~delay deliver] is an empty line on [sim]. Every packet
    sent on it is handed to [deliver] [delay] seconds later, as
    {!Taq_engine.Sim.schedule_after} takes the delay: a negative delay
    delivers at once, and a NaN one makes {!send} raise
    [Invalid_argument]. *)

val send : t -> Packet.t -> unit
(** [send line p] files one calendar entry, due [delay] from now, that
    delivers [p]. Packets sent at the same instant leave in send order.
    Raises [Invalid_argument] on a line that is closed and has
    drained: its slot is gone. *)

val close : t -> deliver:(Packet.t -> unit) -> unit
(** Declare that nothing more will be sent on the line. Packets still
    on it go to [deliver] from now on, and the line gives its slot back
    as soon as it holds no packet. *)

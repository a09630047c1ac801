(** Boxed-entry event heap, retained as the differential-testing
    reference for the flat {!Taq_engine.Event_heap}.

    Same contract as the flat heap (min-heap on time, FIFO tie-break by
    insertion order) with the original boxed [{ time; seq; payload }]
    representation. The test battery runs both lockstep under random
    push/pop/clear interleavings and requires identical pop order and
    identical [size]/[max_size] trajectories. Not used on production
    paths — allocation behaviour is exactly what the flat heap exists
    to avoid. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val max_size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option

val peek_time : 'a t -> float option

val clear : 'a t -> unit

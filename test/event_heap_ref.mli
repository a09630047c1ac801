(** Boxed-entry event heap, retained as the differential-testing
    reference for the flat {!Taq_engine.Event_heap}.

    Same contract as the flat heap (min-heap on time, FIFO tie-break by
    insertion order) with the original boxed [{ time; seq; payload }]
    representation. The test battery runs both lockstep under random
    interleavings of pushes, pops, late-filed seq reservations and
    due-bounded pops, and requires identical pop order and identical
    [size] trajectories. Not used on production paths — allocation
    behaviour is exactly what the flat heap exists to avoid. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val reserve_seq : 'a t -> int

val push_seq : 'a t -> seq:int -> float array -> 'a -> unit
(** Files at time [cell.(0)] under a seq taken earlier from
    {!reserve_seq}. *)

val pop : 'a t -> (float * 'a) option

val peek_time : 'a t -> float option

val pop_due : 'a t -> float array -> 'a option
(** [pop_due t clock]: when the earliest entry's time is at most
    [clock.(1)], remove it, write its time into [clock.(0)] and return
    its payload; otherwise [None]. *)

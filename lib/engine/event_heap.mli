(** Binary min-heap of timestamped events, flat struct-of-arrays layout.

    Ties on time are broken by sequence number, taken from
    {!reserve_seq} in filing order (FIFO), which the network
    simulation relies on for deterministic packet ordering. Payloads
    are non-negative ints (the simulator stores event-slot indices);
    steady-state filing and popping allocate nothing.
    test/event_heap_ref.ml keeps the boxed implementation as a
    differential-testing reference. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val reserve_seq : t -> int
(** Take the next tie-break sequence number without filing anything.
    An entry filed later under it ({!push_seq}) sorts exactly where an
    entry filed at reservation time would have: among entries at its
    time, after those whose number was taken earlier and before those
    taken later. *)

val push_seq : t -> seq:int -> float array -> int -> unit
(** [push_seq t ~seq cell p] files [p] at time [cell.(0)] under [seq],
    which must come from {!reserve_seq} and be filed at most once.
    Allocation-free: the time is read from the cell, not passed as a
    (boxed) float. *)

val top_time : t -> float
(** Earliest timestamp without removing. Raises [Invalid_argument] when
    empty. Returns a boxed float: checks and cold paths. *)

val pop_due : t -> float array -> int
(** [pop_due t clock] removes the earliest entry if its time is at most
    [clock.(1)], writes that time into [clock.(0)] and returns its
    payload; otherwise it returns [-1] and changes nothing. The
    simulator's allocation-free pop: payloads are non-negative, so
    [-1] is unambiguous. *)

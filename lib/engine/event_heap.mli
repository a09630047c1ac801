(** Binary min-heap of timestamped events, flat struct-of-arrays layout.

    Entries are ordered by (time, seq). Seqs are the caller's
    tie-break: the simulator takes them from one counter in filing
    order (FIFO), which the network simulation relies on for
    deterministic packet ordering, and it keeps several heaps whose
    seqs never repeat across them, so {!earliest} merges them into the
    order one heap would give. Payloads are ints other than [-1] (the
    simulator stores event-slot indices, negative for owned slots);
    steady-state filing and popping allocate nothing.
    test/event_heap_ref.ml keeps the boxed implementation as a
    differential-testing reference. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val push : t -> seq:int -> float array -> int -> unit
(** [push t ~seq cell p] files [p] at time [cell.(0)] under [seq], which
    must not be in use by another entry of any heap it is merged with.
    Among entries at its time it sorts by [seq]. Allocation-free: the
    time is read from the cell, not passed as a (boxed) float. *)

val top_time : t -> float
(** Earliest timestamp without removing. Raises [Invalid_argument] when
    empty. Returns a boxed float: checks and cold paths. *)

val earliest : t -> t -> t -> t
(** The heap, of three, whose top comes first in (time, seq) order. An
    empty heap comes after every entry, so with all three empty it is
    an empty one. *)

val due : t -> float array -> bool
(** [due t cell]: whether [t]'s earliest entry is due at or before
    [cell.(0)]. Allocation-free, unlike {!top_time}. *)

val pop_due : t -> float array -> int
(** [pop_due t clock] removes the earliest entry if its time is at most
    [clock.(1)], writes that time into [clock.(0)] and returns its
    payload; otherwise it returns [-1] and changes nothing. The
    simulator's allocation-free pop: no payload is [-1], so it is
    unambiguous. *)

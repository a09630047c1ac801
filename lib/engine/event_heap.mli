(** Binary min-heap of timestamped events, flat struct-of-arrays layout.

    Ties on time are broken by insertion order (FIFO), which the
    network simulation relies on for deterministic packet ordering.
    Payloads are ints (the simulator stores event-slot handles);
    steady-state push/pop allocates nothing. test/event_heap_ref.ml
    keeps the boxed implementation as a differential-testing
    reference. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val max_size : t -> int
(** High-water mark of {!size} since creation (or the last {!clear}) —
    the observability layer exports it as a gauge. *)

val capacity : t -> int
(** Allocated slots. Grows by doubling and never shrinks: {!clear}
    keeps capacity so reused heaps stay warm. *)

val push : t -> time:float -> int -> unit

val top_time : t -> float
(** Earliest timestamp without removing. Raises [Invalid_argument] when
    empty — the allocation-free fast path for callers that checked
    {!is_empty}. *)

val pop_payload : t -> int
(** Remove the earliest event and return its payload (allocation-free;
    pair with {!top_time} read first). Raises [Invalid_argument] when
    empty. *)

val pop : t -> (float * int) option
(** Remove and return the earliest event. Allocates the result; tests
    and cold paths only. *)

val peek_time : t -> float option
(** Earliest timestamp without removing, as an option. *)

val clear : t -> unit
(** Drop all entries and reset {!max_size}, keeping capacity. *)

(** A double-ended queue (ring buffer).

    Queue disciplines need FIFO service {e and} tail drops (push-out
    victims are the most recently queued packets), which [Stdlib.Queue]
    cannot do. Amortized O(1) at both ends. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a option

val pop_back : 'a t -> 'a option

val peek_front : 'a t -> 'a option

val remove_last : ('a -> bool) -> 'a t -> 'a option
(** Test hook: the reference model of [Taq_queues] (test/taq_queues_ref.ml)
    pushes out with it. Remove and return the element nearest the back that
    satisfies the predicate, in place: the elements behind it close the gap
    and keep their order. O(distance from the back). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

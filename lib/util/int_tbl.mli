(** A hash table keyed by ints: open addressing in two flat arrays.

    The per-packet paths look up flows, pools and sequence numbers by
    int key. Every operation here is plain code over an [int array] of
    keys and a parallel ['a array] of values, with no hash or equality
    closure and no bucket cell, so under [lib/]'s inlining budget a
    lookup compiles to an array probe inside its caller.

    The hash is the identity: a key's home slot is its low bits. Keys
    must differ in their low bits. Never pack a secondary index above a
    primary key, as in [(slice lsl 22) lor flow]: every slice of a flow
    then shares the flow's home slot, they fill one run of consecutive
    slots, and every probe that lands in the run walks it. Key by the
    primary id and keep the secondary index in the value.

    [find], [mem] and [replace] of a present key allocate nothing.
    Iteration order is slot order, which differs from [Stdlib.Hashtbl]'s
    and from one capacity to the next: nothing may depend on it. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table. Its first arrays, made at the first
    insert, have [n] slots rounded up to a power of two from 8 to 256;
    nothing is allocated before. *)

val find : 'a t -> int -> 'a
(** @raise Not_found when the key is absent. *)

val find_opt : 'a t -> int -> 'a option

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its value if it is present. *)

val remove : 'a t -> int -> unit
(** Unbind the key; nothing happens when it is absent. *)

val length : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [f] must not change the table. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [f] must not change the table. *)

val reset : 'a t -> unit
(** Empty the table and give its arrays back, as after [create]. *)

val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
(** Keep each binding whose [f] returns [Some v], bound to [v]; remove
    the others. [f] sees every binding once, and must not change the
    table. *)

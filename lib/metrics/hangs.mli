(** User-perceived hangs (Section 2.3): for a user whose browser holds
    a pool of simultaneous TCP connections, a hang is an interval in
    which {e none} of the pool's connections receives any data. *)

type t

val create : unit -> t

val note_session_start : t -> pool:int -> time:float -> unit
(** The user's session begins (the hang clock starts). *)

val note_data : t -> pool:int -> time:float -> unit
(** Some connection of the pool received data. *)

val max_hang : t -> pool:int -> until:float -> float
(** The longest silent interval of the pool, including the trailing one
    up to [until]. Only the running maximum
    is kept, so the state stays one record per pool however much data
    arrives. Unknown pools yield [0.]. *)

val fraction_with_hang :
  t -> pools:int array -> min_hang:float -> until:float -> float
(** Fraction of pools that perceived at least one hang of length
    [>= min_hang] — the paper's "all users perceive at least one hang
    longer than 20 seconds" metric. *)

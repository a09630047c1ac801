(** Section 2.3's user-perceived-hang experiment (the paper omits the
    figure for space; the reported numbers are reproduced here).

    Users each run a pool of simultaneous TCP connections over a
    1 Mbps, 200 ms-RTT bottleneck with one RTT of buffering, fetching
    30-segment objects (seed 43). A hang is an interval during which
    none of a user's connections receives data. Paper: with 4
    connections/user and 200 users every user sees a >20 s hang; with
    400 users almost half see a >1 minute hang — and fewer connections
    per user make hangs {e more} likely, not less. *)

type params = {
  queues : Common.queue list;
  user_counts : int list;
  conns_per_user : int list;
  duration : float;
}

val default : params

val quick : params

type row = {
  queue : string;
  users : int;
  conns : int;
  frac_hang_20s : float;  (** users with at least one >20 s hang *)
  frac_hang_60s : float;
  max_hang : float;
}

val run : params -> row list

val print : row list -> unit

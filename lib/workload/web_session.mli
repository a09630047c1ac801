(** A user's web session: a pool of up to [max_conns] simultaneous TCP
    connections draining a queue of object requests — the client model
    of the paper's testbed scripts ("open up to four connections at a
    time, and request objects as soon as possible").

    Each object fetch is one TCP connection (HTTP/1.0 style, which is
    what makes small packet regimes bite). Completion times include
    connection-setup waiting, so admission-control delay is charged to
    the download as the paper specifies. *)

type fetch = {
  size : int;  (** object bytes *)
  requested_at : float;  (** when the session asked for it *)
  started_at : float;  (** when the connection attempt began *)
  finished_at : float;  (** [nan] if unfinished at the end of the run *)
}

type t

val create :
  net:Taq_net.Dumbbell.t ->
  tcp:Taq_tcp.Tcp_config.t ->
  pool:int ->
  rtt:float ->
  max_conns:int ->
  ?hangs:Taq_metrics.Hangs.t ->
  ?on_fetch_done:(fetch -> unit) ->
  unit ->
  t
(** [hangs] receives per-pool data-arrival events. *)

val request : t -> size:int -> unit
(** Enqueue an object; it is fetched when a connection slot frees. Call
    any time, including before {!start}. *)

val start : t -> unit
(** Begin the session at the current simulation time. *)

val fetches : t -> fetch list
(** All requested objects, completed or not, in request order. *)

val completed : t -> fetch list
(** Test hook: the finished fetches. *)

val pending : t -> int
(** Test hook: requests not yet finished (queued or in flight). *)

val flow_ids : t -> int list
(** Flow ids of every connection the session opened (for slicing). *)

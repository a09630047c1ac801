(** An HTTP/1.1-style browsing session: a small pool of {e persistent}
    TCP connections, each serving a sequence of pipelined object
    requests on the same flow.

    This is the client pattern the paper's Figure 7 anticipates with
    its dummy Idle state: a persistent connection that has delivered
    its current object goes quiet at the middlebox — not because of a
    timeout, but because the application has nothing to send until the
    next request. Contrast with {!Web_session}, which opens one
    connection per object (HTTP/1.0), the pattern that triggers
    admission control.

    Objects on one connection are served strictly in order; the
    session assigns each new request to the connection with the
    shortest backlog. *)

type fetch = {
  size : int;
  requested_at : float;
  finished_at : float;  (** [nan] while unfinished *)
}

type t

val create :
  net:Taq_net.Dumbbell.t ->
  tcp:Taq_tcp.Tcp_config.t ->
  pool:int ->
  rtt:float ->
  conns:int ->
  ?on_fetch_done:(fetch -> unit) ->
  unit ->
  t
(** Opens [conns] persistent connections (not started yet). *)

val start : t -> unit
(** Start the connections (SYN handshakes if configured). *)

val request : t -> size:int -> unit
(** Pipeline an object onto the least-loaded connection. *)

val completed : t -> fetch list
(** Test hook: finished objects, completion order. *)

val pending : t -> int
(** Test hook: objects not yet finished. *)

val flow_ids : t -> int list

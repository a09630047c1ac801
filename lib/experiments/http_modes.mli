(** HTTP/1.0 vs HTTP/1.1 client behaviour under small-packet-regime
    contention.

    The paper attributes the explosion of competing flows partly to
    per-object connections ("in HTTP/1.0 a separate TCP connection is
    set up for each request, and in HTTP/1.1 requests may be
    pipelined", §4.3) and keeps a dummy Idle state in its middlebox
    model for persistent connections between objects (§3.3). This
    experiment quantifies the difference: the same object workload
    driven through per-object connections ({!Taq_workload.Web_session})
    versus persistent pipelined connections
    ({!Taq_workload.Persistent_session}), under droptail and under
    TAQ. Each client fetches 15 KB objects over 4 connections through
    a 600 Kbps, 200 ms-RTT bottleneck with one RTT of buffering
    (seed 53). *)

type params = { clients : int; objects_per_client : int; duration : float }

val default : params

val quick : params

type row = {
  queue : string;
  http_mode : string;  (** "per-object" or "persistent" *)
  completed : int;
  median_download : float;  (** [nan] if nothing completed *)
  p90_download : float;
  flows_opened : int;  (** total TCP connections the clients created *)
  loss_rate : float;
}

val run : params -> row list

val print : row list -> unit

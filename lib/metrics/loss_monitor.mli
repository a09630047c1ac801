(** Packet-loss rate measurement at a link.

    Experiments use it to report the operating point (the model's
    [p]). *)

type t

val attach : Taq_net.Link.t -> t
(** Subscribes to the link's enqueue and drop events. Only data
    packets count: SYN/ACK/FIN are ignored so the rate matches the
    model's per-data-packet [p]. *)

val overall_rate : t -> float
(** drops / (drops + accepted) since attachment; 0 before traffic. *)

val drops : t -> int
(** Test hook: the drop count behind {!overall_rate}. *)

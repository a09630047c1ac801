(** Stochastic Fair Queueing (McKenney 1990).

    Flows hash into a fixed number of buckets; non-empty buckets are
    served round-robin; when the shared buffer is full the arrival is
    dropped from the longest bucket (push-out), which is what gives
    SFQ its approximate per-flow fairness. The paper observes SFQ
    behaves like droptail in small packet regimes because each flow
    rarely has more than one packet queued (Section 5). *)

val create : capacity_pkts:int -> unit -> Taq_net.Disc.t
(** 128 buckets, hashed without perturbation. *)

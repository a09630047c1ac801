(** The Padhye–Firoiu–Towsley–Kurose steady-state TCP throughput model
    (SIGCOMM '98) — the reference point the paper compares its Markov
    model against (Section 6): Padhye's formula fits well at low loss
    rates but does not capture the extended and repetitive timeout
    dynamics that dominate in small packet regimes.

    Throughput (segments per second):

    B(p) = min( Wmax/RTT,
                1 / (RTT·√(2bp/3) + T0·min(1, 3·√(3bp/8))·p·(1+32p²)) )

    with [b = 1] acked segment per ACK (no delayed acks). *)

val throughput_pkts_per_rtt :
  ?wmax:float -> rtt:float -> t0:float -> p:float -> unit -> float
(** {!throughput} × RTT — directly comparable to the Markov model's
    expected goodput per epoch. *)

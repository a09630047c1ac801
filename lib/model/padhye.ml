(* Acked segments per ACK: 1, as no simulated receiver delays its
   ACKs in the configurations the model is compared with. *)
let b = 1.0

let throughput ?(wmax = 1e9) ~rtt ~t0 ~p () =
  if p <= 0.0 || p > 1.0 then invalid_arg "Padhye.throughput: p";
  if rtt <= 0.0 || t0 <= 0.0 then invalid_arg "Padhye.throughput: rtt/t0";
  let congestion_avoidance = rtt *. sqrt (2.0 *. b *. p /. 3.0) in
  let timeout_term =
    t0
    *. Float.min 1.0 (3.0 *. sqrt (3.0 *. b *. p /. 8.0))
    *. p
    *. (1.0 +. (32.0 *. p *. p))
  in
  Float.min (wmax /. rtt) (1.0 /. (congestion_avoidance +. timeout_term))

let throughput_pkts_per_rtt ?wmax ~rtt ~t0 ~p () =
  throughput ?wmax ~rtt ~t0 ~p () *. rtt

type params = {
  n_flows : int;
  rtt_prop : float;
  pkt_bytes : int;
  wmax : float;
  w_min : float;
  buffer_bytes : int;
  capacity_bps : float;
  rto : float;
  dt : float;
  max_share : float;
}

let make_params ?(rtt_prop = 0.2) ?(pkt_bytes = 500) ?(dt = 0.05) ~n_flows
    ~capacity_bps ~buffer_bytes () =
  if n_flows <= 0 then invalid_arg "Fluid.Model.make_params: n_flows";
  if rtt_prop <= 0.0 then invalid_arg "Fluid.Model.make_params: rtt_prop";
  if pkt_bytes <= 0 then invalid_arg "Fluid.Model.make_params: pkt_bytes";
  if buffer_bytes <= 0 then invalid_arg "Fluid.Model.make_params: buffer_bytes";
  if capacity_bps <= 0.0 then
    invalid_arg "Fluid.Model.make_params: capacity_bps";
  if dt <= 0.0 then invalid_arg "Fluid.Model.make_params: dt";
  {
    n_flows;
    rtt_prop;
    pkt_bytes;
    wmax = 64.0;
    w_min = 0.25;
    buffer_bytes;
    capacity_bps;
    rto = 1.0;
    dt;
    max_share = 0.95;
  }

(* Only the identity-bearing fields: capacity and buffer are already
   part of every task key that embeds this string. *)
let params_to_string p =
  Printf.sprintf "n=%d,rtt=%g,pkt=%d,dt=%g" p.n_flows p.rtt_prop p.pkt_bytes
    p.dt

type t = {
  p : params;
  mutable w : float;  (* population-mean cwnd, pkts *)
  mutable a : float;  (* active (non-timed-out) fraction *)
  mutable q : float;  (* fluid backlog, bytes *)
  mutable arrived : float;
  mutable served : float;
  mutable dropped : float;
}

let create p =
  { p; w = 1.0; a = 1.0; q = 0.0; arrived = 0.0; served = 0.0; dropped = 0.0 }

let params t = t.p

let window t = t.w

let active_fraction t = t.a

let backlog_bytes t = t.q

type tick = {
  offered_bps : float;
  served_bps : float;
  dropped_bytes : float;
  p_effective : float;
}

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let demand_bps t =
  let p = t.p in
  let rtt = p.rtt_prop +. (8.0 *. t.q /. p.capacity_bps) in
  float_of_int p.n_flows *. t.a *. t.w /. rtt *. float_of_int (p.pkt_bytes * 8)

let step t ~service_bps ~p_loss =
  let p = t.p in
  let dt = p.dt in
  let service_bps = Float.max 0.0 service_bps in
  let p_loss = clamp 0.0 1.0 p_loss in
  (* Queueing-inflated RTT: the aggregate's packets wait behind the
     shared backlog before crossing the transmitter. *)
  let rtt = p.rtt_prop +. (8.0 *. t.q /. p.capacity_bps) in
  let lambda_pps = float_of_int p.n_flows *. t.a *. t.w /. rtt in
  let offered_bps = lambda_pps *. float_of_int (p.pkt_bytes * 8) in
  let arr_bytes = offered_bps *. dt /. 8.0 in
  let avail_bytes = service_bps *. dt /. 8.0 in
  let served = Float.min (t.q +. arr_bytes) avail_bytes in
  let q' = t.q +. arr_bytes -. served in
  let buffer = float_of_int p.buffer_bytes in
  let overflow = Float.max 0.0 (q' -. buffer) in
  t.q <- q' -. overflow;
  t.arrived <- t.arrived +. arr_bytes;
  t.served <- t.served +. served;
  t.dropped <- t.dropped +. overflow;
  (* The window reacts to the disc's feedback plus its own overflow:
     the fraction of this step's arrivals the buffer refused. *)
  let p_over = if arr_bytes > 0.0 then overflow /. arr_bytes else 0.0 in
  let p_eff = clamp 0.0 1.0 (p_loss +. p_over) in
  let dw =
    (dt /. rtt) -. (p_eff *. (t.w /. rtt) *. (t.w /. 2.0) *. dt)
  in
  t.w <- clamp p.w_min p.wmax (t.w +. dw);
  (* Timeout silence: a loss with fewer than three duplicate acks
     behind it — certain when W < 4, i.e. essentially always in the
     small packet regime — silences the flow for an RTO. *)
  let p_timeout = Float.min 1.0 (3.0 /. t.w) in
  let da =
    (((1.0 -. t.a) /. p.rto)
    -. (t.a *. p_eff *. (t.w /. rtt) *. p_timeout))
    *. dt
  in
  t.a <- clamp 0.01 1.0 (t.a +. da);
  {
    offered_bps;
    served_bps = served *. 8.0 /. dt;
    dropped_bytes = overflow;
    p_effective = p_eff;
  }

let arrived_bytes t = t.arrived

let served_bytes t = t.served

let dropped_bytes t = t.dropped

let loss_rate t = if t.arrived <= 0.0 then 0.0 else t.dropped /. t.arrived

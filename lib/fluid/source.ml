module Sim = Taq_engine.Sim
module Link = Taq_net.Link
module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type t = {
  sim : Sim.t;
  link : Link.t;
  model : Model.t;
  check : Check.t;
  obs : Obs.t;
  filter : Shared_loss.t option;
  mutable n_ticks : int;
  (* Packet-side measurement anchors: link counters at the previous
     tick. *)
  mutable last_offered : int;
  mutable last_bytes_offered : int;
  mutable last_dropped : int;
  mutable last_filter_dropped : int;
  (* Integer emission ledgers: obs counters are ints, the model's
     ledgers are floats; emit floor(total) - emitted each tick so the
     integer stream is a pure function of the float trajectory. *)
  mutable emitted_arrived : int;
  mutable emitted_served : int;
  mutable emitted_dropped : int;
}

let model t = t.model

(* Conservation tolerance: relative to total arrivals, generous enough
   for long double-precision accumulations. *)
let conservation_eps = 1e-6

let verify t =
  if Check.on t.check Check.Fluid then begin
    let m = t.model in
    let p = Model.params m in
    let q = Model.backlog_bytes m in
    Check.require t.check Check.Fluid
      (q >= 0.0 && q <= float_of_int p.Model.buffer_bytes +. 1e-9)
      (fun () ->
        Printf.sprintf "fluid backlog %g outside [0, %d]" q
          p.Model.buffer_bytes);
    let w = Model.window m in
    Check.require t.check Check.Fluid
      (w >= p.Model.w_min -. 1e-12 && w <= p.Model.wmax +. 1e-12)
      (fun () ->
        Printf.sprintf "fluid window %g outside [%g, %g]" w p.Model.w_min
          p.Model.wmax);
    let arrived = Model.arrived_bytes m in
    let accounted = Model.served_bytes m +. Model.dropped_bytes m +. q in
    let scale = Float.max 1.0 arrived in
    Check.require t.check Check.Fluid
      (Float.abs (arrived -. accounted) <= conservation_eps *. scale)
      (fun () ->
        Printf.sprintf
          "fluid byte conservation broken: arrived=%g <> served=%g + \
           dropped=%g + backlog=%g"
          arrived (Model.served_bytes m) (Model.dropped_bytes m) q)
  end

let emit_counters t =
  if Obs.enabled t.obs then begin
    let m = t.model in
    let emit name total emitted set =
      let now = int_of_float (Float.floor total) in
      if now > emitted then begin
        Obs.labeled t.obs name (now - emitted);
        set now
      end
    in
    Obs.labeled t.obs "fluid.ticks" 1;
    emit "fluid.bytes_arrived" (Model.arrived_bytes m) t.emitted_arrived
      (fun v -> t.emitted_arrived <- v);
    emit "fluid.bytes_served" (Model.served_bytes m) t.emitted_served (fun v ->
        t.emitted_served <- v);
    emit "fluid.bytes_dropped" (Model.dropped_bytes m) t.emitted_dropped
      (fun v -> t.emitted_dropped <- v);
    Obs.labeled_gauge_max t.obs "fluid.backlog_peak_bytes"
      (int_of_float (Float.floor (Model.backlog_bytes m)))
  end

let tick t =
  let p = Model.params t.model in
  let st = Link.stats t.link in
  let d_offered = st.Link.offered - t.last_offered in
  let d_bytes_off = st.Link.bytes_offered - t.last_bytes_offered in
  let d_dropped = st.Link.dropped - t.last_dropped in
  t.last_offered <- st.Link.offered;
  t.last_bytes_offered <- st.Link.bytes_offered;
  t.last_dropped <- st.Link.dropped;
  (* Disc feedback: the drop/mark fraction the queue imposed on the
     packets it was offered during the last step. This is discipline-
     agnostic — droptail overflow, RED early marks and a TAQ guard
     degraded to droptail all surface here. Drops made by our own
     reverse filter are excluded: they are fluid congestion echoed
     through the packet path, and the model already charges itself for
     its overflow. *)
  let d_synth =
    match t.filter with
    | None -> 0
    | Some f ->
        let now = Shared_loss.dropped f in
        let d = now - t.last_filter_dropped in
        t.last_filter_dropped <- now;
        d
  in
  let p_loss =
    let real = d_offered - d_synth in
    if real > 0 then float_of_int (d_dropped - d_synth) /. float_of_int real
    else 0.0
  in
  (* Service split. A shared FIFO serves backlogged classes in
     proportion to their arrival rates, so the fluid's share of the
     transmitter is demand_fluid / (demand_fluid + demand_packet) —
     measured over the last step on the packet side, instantaneous on
     the fluid side. Work conservation: capacity the packets are not
     even asking for falls to the fluid regardless of the ratio. *)
  let capacity = Link.capacity_bps t.link in
  let lambda_p = float_of_int (d_bytes_off * 8) /. p.Model.dt in
  let lambda_f = Model.demand_bps t.model in
  let share =
    if lambda_f +. lambda_p <= 0.0 then 1.0
    else lambda_f /. (lambda_f +. lambda_p)
  in
  let service_bps =
    Float.max (capacity *. share) (Float.max 0.0 (capacity -. lambda_p))
  in
  let tk = Model.step t.model ~service_bps ~p_loss in
  (* Push the coupling back into the link: the background claims the
     rate it actually drained, never the whole transmitter. *)
  let bg = Float.min tk.Model.served_bps (p.Model.max_share *. capacity) in
  Link.set_background_bps t.link bg;
  (* Reverse coupling: overflow of the (virtual) shared buffer hits
     foreground arrivals at the same per-packet probability. *)
  (match t.filter with
  | None -> ()
  | Some f ->
      let arr = tk.Model.offered_bps *. p.Model.dt /. 8.0 in
      let p_over = if arr > 0.0 then tk.Model.dropped_bytes /. arr else 0.0 in
      Shared_loss.set_p f p_over);
  t.n_ticks <- t.n_ticks + 1;
  emit_counters t;
  verify t

let attach ?check ?obs ?filter ~sim ~link ~params ~until () =
  let check = match check with Some c -> c | None -> Sim.check sim in
  let obs = match obs with Some o -> o | None -> Sim.obs sim in
  let st = Link.stats link in
  let t =
    {
      sim;
      link;
      model = Model.create params;
      check;
      obs;
      filter;
      n_ticks = 0;
      last_offered = st.Link.offered;
      last_bytes_offered = st.Link.bytes_offered;
      last_dropped = st.Link.dropped;
      last_filter_dropped =
        (match filter with None -> 0 | Some f -> Shared_loss.dropped f);
      emitted_arrived = 0;
      emitted_served = 0;
      emitted_dropped = 0;
    }
  in
  if Obs.enabled obs then
    Obs.labeled obs "fluid.flows_modeled" params.Model.n_flows;
  Sim.every sim ~period:params.Model.dt ~until (fun () -> tick t);
  t

let report t =
  let m = t.model in
  let p = Model.params m in
  Printf.sprintf
    "fluid: flows=%d ticks=%d arrived=%.2fMB served=%.2fMB dropped=%.2f%% \
     w=%.2f backlog=%.0fB"
    p.Model.n_flows t.n_ticks
    (Model.arrived_bytes m /. 1e6)
    (Model.served_bytes m /. 1e6)
    (100.0 *. Model.loss_rate m)
    (Model.window m) (Model.backlog_bytes m)

module Sim = Taq_engine.Sim
module Link = Taq_net.Link
module Plan = Taq_fault.Plan
module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type recovery = Recovered of float | No_recovery | Not_applicable

type row = {
  metric : string;
  baseline : float;
  peak_dev : float;
  recovery : recovery;
}

let n_metrics = 3
let metric_names = [| "jain"; "drop_rate"; "occupancy" |]

(* The SLO vocabulary (DESIGN.md "Resilience SLOs"): the sampling
   window, the consecutive in-tolerance samples that count as a
   sustained return, and each metric's tolerance band around its
   baseline. Occupancy's band is a fraction of the baseline with a
   floor in packets, since a shallow baseline would otherwise demand
   sub-packet precision. *)
let period = 0.5
let sustain = 3
let eps_jain = 0.05
let eps_drop = 0.02
let eps_occ_frac = 0.5
let eps_occ_floor = 3.0

let slo =
  Printf.sprintf
    "period=%g,sustain=%d,eps-jain=%g,eps-drop=%g,eps-occ-frac=%g,eps-occ-floor=%g"
    period sustain eps_jain eps_drop eps_occ_frac eps_occ_floor

type t = {
  sim : Sim.t;
  link : Link.t;
  check : Check.t;
  obs : Obs.t;
  first_fault : float;  (* Plan.first_start; infinity for empty plan *)
  clear_at : float;  (* Plan.horizon; infinity when it never clears *)
  spans : (float * float) list;
  window_bytes : (int, int ref) Hashtbl.t;
  mutable last_offered : int;
  mutable last_dropped : int;
  mutable last_tick : float;
  mutable samples : int;
  base_sum : float array;
  mutable base_n : int;
  baseline : float array;  (* meaningful once [frozen] *)
  mutable frozen : bool;
  mutable missed_baseline : bool;
      (* frozen from a post-injection sample: no pre-fault tick landed *)
  peak_dev : float array;
  streak : int array;
  streak_start : float array;
  recover : float array;  (* nan until recovered *)
  mutable armed : bool;
  mutable finalized : bool;
}

let create ~check ~obs ~sim ~link ~plan =
  let clear_at = if Plan.is_empty plan then infinity else Plan.horizon plan in
  {
    sim;
    link;
    check;
    obs;
    first_fault = Plan.first_start plan;
    clear_at;
    spans = Plan.spans plan;
    window_bytes = Hashtbl.create 64;
    last_offered = 0;
    last_dropped = 0;
    last_tick = neg_infinity;
    samples = 0;
    base_sum = Array.make n_metrics 0.0;
    base_n = 0;
    baseline = Array.make n_metrics 0.0;
    frozen = false;
    missed_baseline = false;
    peak_dev = Array.make n_metrics 0.0;
    streak = Array.make n_metrics 0;
    streak_start = Array.make n_metrics 0.0;
    recover = Array.make n_metrics Float.nan;
    armed = false;
    finalized = false;
  }

let note_delivery t ~flow ~bytes =
  match Hashtbl.find_opt t.window_bytes flow with
  | Some r -> r := !r + bytes
  | None -> Hashtbl.add t.window_bytes flow (ref bytes)

(* Jain index over the flows that delivered bytes this window. The
   fold order of the hash table depends on its internals, and float
   addition is order-sensitive, so sort by flow id first — the sum is
   then a deterministic function of the (flow, bytes) set. *)
let window_jain t =
  let xs =
    Hashtbl.fold
      (fun flow r acc ->
        if !r > 0 then (flow, float_of_int !r) :: acc else acc)
      t.window_bytes []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  match xs with
  | [] -> 1.0
  | _ ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 xs in
      let s2 = List.fold_left (fun acc (_, x) -> acc +. (x *. x)) 0.0 xs in
      if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

let eps t i =
  if i = 0 then eps_jain
  else if i = 1 then eps_drop
  else Float.max eps_occ_floor (eps_occ_frac *. t.baseline.(2))

(* A sample at [now] summarizes the window (now - period, now]; it is
   a fault-window sample when that window overlaps any clause span
   (zero-length spans — restarts — are covered by the strict/half-open
   combination). *)
let sample_in_fault t now =
  List.exists (fun (s, e) -> now > s && now -. period < e) t.spans

let tick t () =
  let now = Sim.now t.sim in
  Check.require t.check Check.Resil
    (now > t.last_tick)
    (fun () ->
      Printf.sprintf "resil: sample clock not strictly monotone (%g after %g)"
        now t.last_tick);
  t.last_tick <- now;
  t.samples <- t.samples + 1;
  let stats = Link.stats t.link in
  let offered_d = stats.Link.offered - t.last_offered in
  let dropped_d = stats.Link.dropped - t.last_dropped in
  t.last_offered <- stats.Link.offered;
  t.last_dropped <- stats.Link.dropped;
  let jain = window_jain t in
  Hashtbl.reset t.window_bytes;
  let drop =
    if offered_d <= 0 then 0.0
    else float_of_int dropped_d /. float_of_int offered_d
  in
  let occ = float_of_int (Link.queue_length t.link) in
  Check.require t.check Check.Resil
    (jain >= 0.0 && jain <= 1.0 +. 1e-9 && drop >= 0.0 && drop <= 1.0
   && occ >= 0.0)
    (fun () ->
      Printf.sprintf "resil: sample out of range at t=%g (jain=%g drop=%g occ=%g)"
        now jain drop occ);
  let sample = [| jain; drop; occ |] in
  (if not t.frozen then
     if now <= t.first_fault then begin
       for i = 0 to n_metrics - 1 do
         t.base_sum.(i) <- t.base_sum.(i) +. sample.(i)
       done;
       t.base_n <- t.base_n + 1
     end
     else begin
       if t.base_n > 0 then
         for i = 0 to n_metrics - 1 do
           t.baseline.(i) <- t.base_sum.(i) /. float_of_int t.base_n
         done
       else begin
         t.missed_baseline <- true;
         Array.blit sample 0 t.baseline 0 n_metrics
       end;
       t.frozen <- true;
       Check.require t.check Check.Resil
         (t.base_n > 0 || t.first_fault <= 0.0)
         (fun () ->
           Printf.sprintf
             "resil: baseline not frozen before first injection at t=%g \
              (first sample only at t=%g — shorten the period or delay the \
              fault)"
             t.first_fault now)
     end);
  if t.frozen then begin
    if sample_in_fault t now then
      for i = 0 to n_metrics - 1 do
        let d = Float.abs (sample.(i) -. t.baseline.(i)) in
        if d > t.peak_dev.(i) then t.peak_dev.(i) <- d
      done;
    if now >= t.clear_at then
      for i = 0 to n_metrics - 1 do
        if Float.is_nan t.recover.(i) then
          if Float.abs (sample.(i) -. t.baseline.(i)) <= eps t i then begin
            if t.streak.(i) = 0 then t.streak_start.(i) <- now;
            t.streak.(i) <- t.streak.(i) + 1;
            if t.streak.(i) >= sustain then
              t.recover.(i) <- t.streak_start.(i) -. t.clear_at
          end
          else t.streak.(i) <- 0
      done
  end

let arm t ~until =
  if not t.armed then begin
    t.armed <- true;
    t.last_tick <- Sim.now t.sim;
    let st = Link.stats t.link in
    t.last_offered <- st.Link.offered;
    t.last_dropped <- st.Link.dropped;
    Sim.every t.sim ~period ~until (tick t)
  end

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    if Obs.enabled t.obs then begin
      Obs.labeled t.obs "resil.samples" t.samples;
      if t.missed_baseline then Obs.labeled t.obs "resil.baseline_missed" 1;
      if t.frozen && Float.is_finite t.clear_at then
        Array.iteri
          (fun i name ->
            let r = t.recover.(i) in
            if Float.is_nan r then
              Obs.labeled t.obs ("resil.no_recovery." ^ name) 1
            else begin
              Obs.labeled t.obs ("resil.recovered." ^ name) 1;
              Obs.labeled_gauge_max t.obs
                ("resil.recover_ms." ^ name)
                (int_of_float (Float.round (r *. 1000.0)))
            end)
          metric_names
    end
  end

let rows t =
  finalize t;
  Array.to_list
    (Array.mapi
       (fun i name ->
         let baseline =
           if t.frozen then t.baseline.(i)
           else if t.base_n > 0 then t.base_sum.(i) /. float_of_int t.base_n
           else Float.nan
         in
         let peak_dev = if t.frozen then t.peak_dev.(i) else Float.nan in
         let recovery =
           if (not t.frozen) || not (Float.is_finite t.clear_at) then
             Not_applicable
           else if Float.is_nan t.recover.(i) then No_recovery
           else Recovered t.recover.(i)
         in
         { metric = name; baseline; peak_dev; recovery })
       metric_names)

let recovery_to_string = function
  | Recovered s -> Printf.sprintf "%.2f" s
  | No_recovery -> "no_recovery"
  | Not_applicable -> "-"

let opt_float_to_string v =
  if Float.is_nan v then "-" else Printf.sprintf "%.6f" v

let row_line ?(prefix = "resil ") row =
  Printf.sprintf "%smetric=%s baseline=%s peak_dev=%s recover_s=%s" prefix
    row.metric
    (opt_float_to_string row.baseline)
    (opt_float_to_string row.peak_dev)
    (recovery_to_string row.recovery)

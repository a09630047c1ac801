module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type mode = Normal | Degraded | Recovering

let trip_after = 0.25

let clear_after = 1.0

let min_dwell = 1.0

let recovery_dwell = 1.0

let waiting_high = 64

let mode_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Recovering -> "recovering"

type t = {
  cap : int;
  now : unit -> float;
  check : Check.t;
  obs : Obs.t;
  obs_entered : int ref;
  obs_exited : int ref;
  mutable mode : mode;
  mutable mode_since : float;
  (* Start of the current uninterrupted pressure (resp. calm) run;
     [nan] when the current sample broke the run. Exactly one of the
     two is active at any time. *)
  mutable pressure_since : float;
  mutable calm_since : float;
  mutable last_cap_evictions : int;
  mutable degraded_entered : int;
  mutable degraded_exited : int;
}

let create ?check ?obs ~cap ~now () =
  let check = Option.value check ~default:Check.off in
  let obs = Option.value obs ~default:Obs.off in
  let t0 = now () in
  {
    cap;
    now;
    check;
    obs;
    obs_entered = Obs.labeled_ref obs "guard.degraded_entered";
    obs_exited = Obs.labeled_ref obs "guard.degraded_exited";
    mode = Normal;
    mode_since = t0;
    pressure_since = Float.nan;
    calm_since = t0;
    last_cap_evictions = 0;
    degraded_entered = 0;
    degraded_exited = 0;
  }

let mode t = t.mode

let degraded t = t.mode = Degraded

let degraded_entered t = t.degraded_entered

let degraded_exited t = t.degraded_exited

let time_in_mode t = t.now () -. t.mode_since

let transition t ~now next =
  let dwell = now -. t.mode_since in
  (* Self-check: the anti-flap contract. Every edge requires at least
     [min_dwell] in the departing mode (Recovering -> Normal requires
     the possibly-larger [recovery_dwell], so [min_dwell] is the floor
     common to all edges). *)
  Check.require t.check Check.Guard
    (dwell >= min_dwell -. 1e-9)
    (fun () ->
      Printf.sprintf "guard transition %s->%s after %.3fs < min_dwell %.3fs"
        (mode_name t.mode) (mode_name next) dwell min_dwell);
  (match (t.mode, next) with
  | (Normal | Recovering), Degraded ->
      t.degraded_entered <- t.degraded_entered + 1;
      incr t.obs_entered
  | Degraded, (Normal | Recovering) ->
      t.degraded_exited <- t.degraded_exited + 1;
      incr t.obs_exited;
      Obs.labeled_gauge_max t.obs "guard.degraded_dwell_ms"
        (int_of_float (Float.round (dwell *. 1000.0)))
  | _ -> ());
  t.mode <- next;
  t.mode_since <- now

let sample t ~tracked ~cap_evictions ~waiting =
  let now = t.now () in
  (* The hard-bound invariant: whatever the flood does, the tracker
     never exceeds its configured cap. *)
  Check.require t.check Check.Guard (tracked <= t.cap) (fun () ->
      Printf.sprintf "tracked flows %d exceed cap %d" tracked t.cap);
  let pressure =
    cap_evictions > t.last_cap_evictions || waiting >= waiting_high
  in
  t.last_cap_evictions <- cap_evictions;
  if pressure then begin
    if Float.is_nan t.pressure_since then t.pressure_since <- now;
    t.calm_since <- Float.nan
  end
  else begin
    if Float.is_nan t.calm_since then t.calm_since <- now;
    t.pressure_since <- Float.nan
  end;
  let dwell = now -. t.mode_since in
  let sustained since horizon =
    (not (Float.is_nan since)) && now -. since >= horizon
  in
  match t.mode with
  | Normal ->
      if sustained t.pressure_since trip_after && dwell >= min_dwell then
        transition t ~now Degraded
  | Degraded ->
      if sustained t.calm_since clear_after && dwell >= min_dwell then
        transition t ~now Recovering
  | Recovering ->
      if pressure && dwell >= min_dwell then transition t ~now Degraded
      else if (not pressure) && dwell >= Float.max recovery_dwell min_dwell
      then transition t ~now Normal

let report t =
  Printf.sprintf
    "guard: mode=%s entered=%d exited=%d dwell=%.2fs cap=%d"
    (mode_name t.mode) t.degraded_entered t.degraded_exited (time_in_mode t)
    t.cap

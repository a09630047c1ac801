(* The flow tracker as it stood before the deadline heaps: every
   [active_flow_count] and every [tick] scans all tracked flows. Kept
   verbatim (bar this header, the [open], the fair share, which it
   computes inline as [capacity /. max 1 n] as the tracker does, and
   the RTT-proportional and pool-fairness paths, which the tracker no
   longer has) as the reference the differential battery in test_taq
   drives in lockstep with [Taq_core.Flow_tracker]. Its
   [Epoch_estimator] is the module kept beside it in test/, so the
   battery also checks the estimator the tracker folds into each flow
   record against the one it replaced. *)

open Taq_core

module Packet = Taq_net.Packet

type classification = New_data | Retransmission

type flow = {
  id : int;
  mutable pool : int;
  est : Epoch_estimator.t;
  mutable state : Flow_state.t;
  mutable epoch_start : float;
  mutable new_pkts : int;
  mutable retx_pkts : int;
  mutable bytes_this_epoch : int;
  mutable drops_this_epoch : int;
  mutable drops_prev_epoch : int;
  mutable prev_new_pkts : int;
  mutable highest_seq : int;
  mutable outstanding_drops : int;
  mutable silence_epochs : int;
  mutable epochs_observed : int;
  rate : Taq_util.Ewma.t;
  mutable last_seen : float;
}

type t = {
  config : Taq_config.t;
  now : unit -> float;
  flows : (int, flow) Hashtbl.t;
  mutable cap_evictions : int;
  mutable peak_tracked : int;
  (* Pre-resolved observability counters (dummy refs when obs is off,
     so the rare-event hot paths below stay branch-free). *)
  obs_flows_created : int ref;
  obs_evictions : int ref;
  obs_cap_evictions : int ref;
}

let create ?obs ~config ~now () =
  let obs =
    match obs with Some o -> o | None -> Taq_obs.Obs.off
  in
  {
    config;
    now;
    flows = Hashtbl.create 256;
    cap_evictions = 0;
    peak_tracked = 0;
    obs_flows_created = Taq_obs.Obs.labeled_ref obs "tracker.flows_created";
    obs_evictions = Taq_obs.Obs.labeled_ref obs "tracker.evictions";
    obs_cap_evictions = Taq_obs.Obs.labeled_ref obs "tracker.cap_evictions";
  }

let new_flow t ~id ~pool =
  {
    id;
    pool;
    est = Epoch_estimator.create t.config.Taq_config.epoch_source;
    state = Flow_state.initial;
    epoch_start = t.now ();
    new_pkts = 0;
    retx_pkts = 0;
    bytes_this_epoch = 0;
    drops_this_epoch = 0;
    drops_prev_epoch = 0;
    prev_new_pkts = 0;
    highest_seq = -1;
    outstanding_drops = 0;
    silence_epochs = 0;
    epochs_observed = 0;
    rate = Taq_util.Ewma.create ~alpha:0.3;
    last_seen = t.now ();
  }

(* The hard state bound: inserting into a full table evicts the
   least-recently-seen entry first (ties broken by lowest id for
   determinism). Idle flows age to the LRU end within an RTT, so under
   a one-packet-flow flood this is exactly idle-first eviction; the
   legitimate flows being actively forwarded keep refreshing
   [last_seen] and survive. O(n) scan — acceptable because it only
   runs when the table is already at its configured cap. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun id f ->
      match !victim with
      | None -> victim := Some (id, f)
      | Some (vid, v) ->
          if
            f.last_seen < v.last_seen
            || (f.last_seen = v.last_seen && id < vid)
          then victim := Some (id, f))
    t.flows;
  match !victim with
  | None -> ()
  | Some (id, _) ->
      Hashtbl.remove t.flows id;
      t.cap_evictions <- t.cap_evictions + 1;
      incr t.obs_cap_evictions

let lookup t ~flow ~pool =
  match Hashtbl.find_opt t.flows flow with
  | Some f -> f
  | None ->
      if Hashtbl.length t.flows >= t.config.Taq_config.max_tracked_flows then
        evict_lru t;
      let f = new_flow t ~id:flow ~pool in
      Hashtbl.replace t.flows flow f;
      incr t.obs_flows_created;
      let n = Hashtbl.length t.flows in
      if n > t.peak_tracked then t.peak_tracked <- n;
      f

let roll_one_epoch f ~epoch =
  f.state <-
    Flow_state.step_counts f.state ~new_pkts:f.new_pkts
      ~retx_pkts:f.retx_pkts ~drops:f.drops_this_epoch
      ~prev_new_pkts:f.prev_new_pkts ~outstanding_drops:f.outstanding_drops;
  if f.new_pkts = 0 && f.retx_pkts = 0 then
    f.silence_epochs <- f.silence_epochs + 1
  else f.silence_epochs <- 0;
  Taq_util.Ewma.update f.rate
    (float_of_int (f.bytes_this_epoch * 8) /. epoch);
  f.prev_new_pkts <- f.new_pkts;
  f.drops_prev_epoch <- f.drops_this_epoch;
  f.new_pkts <- 0;
  f.retx_pkts <- 0;
  f.bytes_this_epoch <- 0;
  f.drops_this_epoch <- 0;
  f.epoch_start <- f.epoch_start +. epoch;
  f.epochs_observed <- f.epochs_observed + 1

(* Advance the flow's epoch boundary up to [now]; several epochs may
   have elapsed silently. Bounded per call so a flow returning after a
   very long idle period cannot stall the queue. *)
let catch_up t f =
  let now = t.now () in
  let budget = ref 64 in
  let continue = ref true in
  while !continue && !budget > 0 do
    let epoch = Epoch_estimator.epoch f.est in
    if now -. f.epoch_start >= epoch then begin
      roll_one_epoch f ~epoch;
      decr budget
    end
    else continue := false
  done;
  if !budget = 0 then f.epoch_start <- now

let observe_syn t ~flow ~pool =
  let f = lookup t ~flow ~pool in
  f.pool <- pool;
  f.last_seen <- t.now ();
  Epoch_estimator.note_syn f.est ~time:(t.now ())

let observe_data t (p : Packet.t) =
  let f = lookup t ~flow:p.flow ~pool:p.pool in
  catch_up t f;
  let now = t.now () in
  f.last_seen <- now;
  Epoch_estimator.note_packet f.est ~time:now;
  f.bytes_this_epoch <- f.bytes_this_epoch + p.size;
  if p.seq <= f.highest_seq then begin
    f.retx_pkts <- f.retx_pkts + 1;
    f.outstanding_drops <- Stdlib.max 0 (f.outstanding_drops - 1);
    Retransmission
  end
  else begin
    f.new_pkts <- f.new_pkts + 1;
    f.highest_seq <- p.seq;
    New_data
  end

let observe_drop t (p : Packet.t) =
  match Hashtbl.find_opt t.flows p.flow with
  | None -> ()
  | Some f ->
      f.drops_this_epoch <- f.drops_this_epoch + 1;
      f.outstanding_drops <- f.outstanding_drops + 1

let tick t =
  let now = t.now () in
  let expired = ref [] in
  Hashtbl.iter
    (fun id f ->
      catch_up t f;
      if now -. f.last_seen > t.config.Taq_config.flow_idle_timeout then
        expired := id :: !expired)
    t.flows;
  List.iter (Hashtbl.remove t.flows) !expired;
  (match !expired with
  | [] -> ()
  | l -> t.obs_evictions := !(t.obs_evictions) + List.length l)

let with_flow t ~flow ~default f =
  match Hashtbl.find_opt t.flows flow with None -> default | Some fl -> f fl

let state t ~flow = with_flow t ~flow ~default:Flow_state.initial (fun f -> f.state)

let silence_epochs t ~flow = with_flow t ~flow ~default:0 (fun f -> f.silence_epochs)

let epoch_len t ~flow =
  with_flow t ~flow
    ~default:
      (match t.config.Taq_config.epoch_source with
      | Taq_config.Oracle rtt -> rtt
      | Taq_config.Estimated { default_epoch; _ } -> default_epoch)
    (fun f -> Epoch_estimator.epoch f.est)

let epochs_observed t ~flow = with_flow t ~flow ~default:0 (fun f -> f.epochs_observed)

let rate_bps t ~flow =
  with_flow t ~flow ~default:0.0 (fun f ->
      if Taq_util.Ewma.is_initialized f.rate then Taq_util.Ewma.value f.rate
      else 0.0)

let outstanding_drops t ~flow =
  with_flow t ~flow ~default:0 (fun f -> f.outstanding_drops)

let recent_drops t ~flow =
  with_flow t ~flow ~default:0 (fun f ->
      f.drops_this_epoch + f.drops_prev_epoch)

let is_overpenalized t ~flow =
  recent_drops t ~flow > t.config.Taq_config.overpenalize_drops

let is_new_flow t ~flow =
  with_flow t ~flow ~default:true (fun f ->
      f.epochs_observed < Flow_tracker.slowstart_epochs
      &&
      match f.state with
      | Flow_state.Slow_start -> true
      | Flow_state.Normal | Flow_state.Loss_recovery
      | Flow_state.Timeout_silence | Flow_state.Timeout_recovery
      | Flow_state.Extended_silence | Flow_state.Idle ->
          false)

let active_window t ~flow =
  Float.max 1.0 (5.0 *. epoch_len t ~flow)

let active_flow_count t =
  let now = t.now () in
  let n = ref 0 in
  Hashtbl.iter
    (fun id f ->
      if now -. f.last_seen <= active_window t ~flow:id then incr n)
    t.flows;
  !n

let tracked_flow_count t = Hashtbl.length t.flows
let cap_evictions t = t.cap_evictions
let peak_tracked t = t.peak_tracked

let fair_share_bps t =
  t.config.Taq_config.capacity_bps
  /. float_of_int (Stdlib.max 1 (active_flow_count t))

let below_fair_share t ~flow = rate_bps t ~flow < fair_share_bps t

let pool_of t ~flow = with_flow t ~flow ~default:(-1) (fun f -> f.pool)

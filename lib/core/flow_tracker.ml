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
  (* Positions in the two deadline heaps below; -1 when absent. *)
  mutable active_pos : int;
  mutable due_pos : int;
}

(* A binary min-heap of flows keyed by a deadline, with each flow's
   position kept on the flow record so it can be re-keyed or removed in
   O(log n). Keys and flows live in flat parallel arrays, grown by
   doubling on demand. Two instances exist per tracker; [active]
   selects which position field of [flow] an instance owns.

   Keys are lower bounds: a key never sits above its flow's true
   deadline. Deadlines that move earlier are re-keyed eagerly
   ([decrease]); deadlines that move later are left stale and re-keyed
   when the entry reaches the top. *)
module Deadlines = struct
  type t = {
    active : bool;
    mutable keys : float array;
    mutable flows : flow array;
    mutable size : int;
  }

  let create ~active = { active; keys = [||]; flows = [||]; size = 0 }

  let[@inline] pos h f = if h.active then f.active_pos else f.due_pos

  let[@inline] set_pos h f i =
    if h.active then f.active_pos <- i else f.due_pos <- i

  let[@inline] mem h f = pos h f >= 0

  let[@inline] min_key h = if h.size = 0 then infinity else h.keys.(0)

  let[@inline] top h = h.flows.(0)

  let[@inline] key h f = h.keys.(pos h f)

  (* Sift up from hole [i] and land [f] there: parents with later keys
     slide down one level each. *)
  let sift_up h i k f =
    let keys = h.keys and flows = h.flows in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pk = keys.(parent) in
      if k < pk then begin
        let pf = flows.(parent) in
        keys.(!i) <- pk;
        flows.(!i) <- pf;
        set_pos h pf !i;
        i := parent
      end
      else continue := false
    done;
    keys.(!i) <- k;
    flows.(!i) <- f;
    set_pos h f !i

  let sift_down h i k f =
    let keys = h.keys and flows = h.flows and n = h.size in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && keys.(r) < keys.(l) then r else l in
        let ck = keys.(c) in
        if ck < k then begin
          let cf = flows.(c) in
          keys.(!i) <- ck;
          flows.(!i) <- cf;
          set_pos h cf !i;
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- k;
    flows.(!i) <- f;
    set_pos h f !i

  let push h f k =
    let cap = Array.length h.keys in
    if h.size = cap then begin
      let ncap = Stdlib.max 16 (2 * cap) in
      let keys = Array.make ncap 0.0 and flows = Array.make ncap f in
      Array.blit h.keys 0 keys 0 h.size;
      Array.blit h.flows 0 flows 0 h.size;
      h.keys <- keys;
      h.flows <- flows
    end;
    h.size <- h.size + 1;
    sift_up h (h.size - 1) k f

  let remove h f =
    let i = pos h f in
    set_pos h f (-1);
    let n = h.size - 1 in
    h.size <- n;
    if i < n then begin
      let k = h.keys.(n) and last = h.flows.(n) in
      if i > 0 && k < h.keys.((i - 1) / 2) then sift_up h i k last
      else sift_down h i k last
    end;
    (* Do not keep a forgotten flow reachable from a vacated slot. *)
    if n > 0 then h.flows.(n) <- h.flows.(0)

  let[@inline] decrease h f k = if k < key h f then sift_up h (pos h f) k f

  (* The lazy key increase: the top entry's deadline has moved later. *)
  let[@inline] rekey_top h k = sift_down h 0 k h.flows.(0)
end

type t = {
  config : Taq_config.t;
  now : unit -> float;
  flows : (int, flow) Hashtbl.t;
  (* Flows counted by [active_flow_count], keyed by the expiry of their
     active window. Every tracked flow outside it is inactive. *)
  active : Deadlines.t;
  (* Every tracked flow, keyed by its next epoch boundary or idle
     expiry, whichever comes first. *)
  due : Deadlines.t;
  mutable clock : float;  (* latest time read; the heaps need it monotone *)
  mutable clock_monotone : bool;
  mutable cap_evictions : int;
  mutable peak_tracked : int;
  (* Pre-resolved observability counters (dummy refs when obs is off,
     so the rare-event hot paths below stay branch-free). *)
  obs_flows_created : int ref;
  obs_evictions : int ref;
  obs_cap_evictions : int ref;
}

let create ?obs ~config ~now () =
  let obs = Option.value obs ~default:Taq_obs.Obs.off in
  {
    config;
    now;
    flows = Hashtbl.create 256;
    active = Deadlines.create ~active:true;
    due = Deadlines.create ~active:false;
    clock = neg_infinity;
    clock_monotone = true;
    cap_evictions = 0;
    peak_tracked = 0;
    obs_flows_created = Taq_obs.Obs.labeled_ref obs "tracker.flows_created";
    obs_evictions = Taq_obs.Obs.labeled_ref obs "tracker.evictions";
    obs_cap_evictions = Taq_obs.Obs.labeled_ref obs "tracker.cap_evictions";
  }

let read_clock t =
  let now = t.now () in
  if now < t.clock then t.clock_monotone <- false else t.clock <- now;
  now

(* Heap pops run up to [now] plus this slack. A flow whose predicate
   flipped at [now] has a deadline within a few ulp of [now] (both are
   rounded sums and differences of the same operands); the slack is
   many orders of magnitude above that at any simulated time, so no
   due flow is ever skipped. Popping a little early is harmless: every
   decision re-evaluates the exact predicate. *)
let[@inline] due_bound now = now +. (1e-9 *. (1.0 +. Float.abs now))

let window f = Float.max 1.0 (5.0 *. Epoch_estimator.epoch f.est)

let active_key f = f.last_seen +. window f

let due_key t f =
  let boundary = f.epoch_start +. Epoch_estimator.epoch f.est
  and idle = f.last_seen +. t.config.Taq_config.flow_idle_timeout in
  if boundary < idle then boundary else idle

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
    active_pos = -1;
    due_pos = -1;
  }

let forget t f =
  Hashtbl.remove t.flows f.id;
  if Deadlines.mem t.active f then Deadlines.remove t.active f;
  Deadlines.remove t.due f

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
  | Some (_, f) ->
      forget t f;
      t.cap_evictions <- t.cap_evictions + 1;
      incr t.obs_cap_evictions

let lookup t ~flow ~pool =
  match Hashtbl.find t.flows flow with
  | f -> f
  | exception Not_found ->
      if Hashtbl.length t.flows >= t.config.Taq_config.max_tracked_flows then
        evict_lru t;
      let f = new_flow t ~id:flow ~pool in
      Hashtbl.replace t.flows flow f;
      Deadlines.push t.active f (active_key f);
      Deadlines.push t.due f (due_key t f);
      incr t.obs_flows_created;
      let n = Hashtbl.length t.flows in
      if n > t.peak_tracked then t.peak_tracked <- n;
      f

(* [f] was just seen: it is active again, and its window may have
   shrunk with the epoch estimate. *)
let refresh_active t f =
  let k = active_key f in
  if Deadlines.mem t.active f then Deadlines.decrease t.active f k
  else Deadlines.push t.active f k

let roll_one_epoch f ~epoch =
  let obs =
    {
      Flow_state.new_pkts = f.new_pkts;
      retx_pkts = f.retx_pkts;
      drops = f.drops_this_epoch;
      prev_new_pkts = f.prev_new_pkts;
      outstanding_drops = f.outstanding_drops;
    }
  in
  f.state <- Flow_state.step f.state obs;
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
  let now = read_clock t in
  let f = lookup t ~flow ~pool in
  f.pool <- pool;
  f.last_seen <- now;
  Epoch_estimator.note_syn f.est ~time:now;
  refresh_active t f

let observe_data t (p : Packet.t) =
  let now = read_clock t in
  let f = lookup t ~flow:p.flow ~pool:p.pool in
  catch_up t f;
  f.last_seen <- now;
  Epoch_estimator.note_packet f.est ~time:now;
  (* The epoch estimate may have shrunk, pulling both deadlines in. *)
  refresh_active t f;
  Deadlines.decrease t.due f (due_key t f);
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
  match Hashtbl.find t.flows p.flow with
  | f ->
      f.drops_this_epoch <- f.drops_this_epoch + 1;
      f.outstanding_drops <- f.outstanding_drops + 1
  | exception Not_found -> ()

(* Entries popped at [now] whose fresh deadline still falls within the
   slack are held back until the pop loop ends, then re-pushed. *)
let rec restore h key_of = function
  | [] -> ()
  | f :: rest ->
      Deadlines.push h f (key_of f);
      restore h key_of rest

(* Only flows whose key is due are visited. For every other flow the
   epoch boundary has not come, so [catch_up] would not roll, and the
   idle check is false. Flows are independent, so skipping them is
   exact. *)
let tick t =
  let now = read_clock t in
  let bound = due_bound now in
  let timeout = t.config.Taq_config.flow_idle_timeout in
  let h = t.due in
  let held = ref [] and expired = ref 0 in
  while Deadlines.min_key h <= bound do
    let f = Deadlines.top h in
    catch_up t f;
    if now -. f.last_seen > timeout then begin
      forget t f;
      incr expired
    end
    else begin
      let k = due_key t f in
      if k > bound then Deadlines.rekey_top h k
      else begin
        Deadlines.remove h f;
        held := f :: !held
      end
    end
  done;
  if !held <> [] then restore h (due_key t) !held;
  if !expired > 0 then t.obs_evictions := !(t.obs_evictions) + !expired

(* Per-flow accessors read unknown flows as a fresh flow would.
   [Hashtbl.find] with [Not_found] allocates nothing per lookup. *)
let find t flow = Hashtbl.find t.flows flow

let state t ~flow = try (find t flow).state with Not_found -> Flow_state.initial

let silence_epochs t ~flow =
  try (find t flow).silence_epochs with Not_found -> 0

let epoch_len t ~flow =
  match find t flow with
  | f -> Epoch_estimator.epoch f.est
  | exception Not_found -> (
      match t.config.Taq_config.epoch_source with
      | Taq_config.Oracle rtt -> rtt
      | Taq_config.Estimated { default_epoch; _ } -> default_epoch)

let epochs_observed t ~flow =
  try (find t flow).epochs_observed with Not_found -> 0

let rate_bps t ~flow =
  match find t flow with
  | f ->
      if Taq_util.Ewma.is_initialized f.rate then Taq_util.Ewma.value f.rate
      else 0.0
  | exception Not_found -> 0.0

let outstanding_drops t ~flow =
  try (find t flow).outstanding_drops with Not_found -> 0

let recent_drops t ~flow =
  match find t flow with
  | f -> f.drops_this_epoch + f.drops_prev_epoch
  | exception Not_found -> 0

let is_overpenalized t ~flow =
  recent_drops t ~flow > t.config.Taq_config.overpenalize_drops

let is_new_flow t ~flow =
  match find t flow with
  | f -> (
      f.epochs_observed < t.config.Taq_config.slowstart_epochs
      &&
      match f.state with
      | Flow_state.Slow_start -> true
      | Flow_state.Normal | Flow_state.Loss_recovery
      | Flow_state.Timeout_silence | Flow_state.Timeout_recovery
      | Flow_state.Extended_silence | Flow_state.Idle ->
          false)
  | exception Not_found -> true

let[@inline] is_active now f = now -. f.last_seen <= window f

(* Pop the flows whose window may have closed: the ones still active
   are re-keyed to their current expiry, the rest leave the heap. *)
let active_flow_count t =
  let now = read_clock t in
  let bound = due_bound now in
  let h = t.active in
  let held = ref [] in
  while Deadlines.min_key h <= bound do
    let f = Deadlines.top h in
    if is_active now f then begin
      let k = active_key f in
      if k > bound then Deadlines.rekey_top h k
      else begin
        Deadlines.remove h f;
        held := f :: !held
      end
    end
    else Deadlines.remove h f
  done;
  if !held <> [] then restore h active_key !held;
  h.size

let tracked_flow_count t = Hashtbl.length t.flows
let cap_evictions t = t.cap_evictions
let peak_tracked t = t.peak_tracked

let active_flow_count_scan t =
  let now = t.now () in
  Hashtbl.fold (fun _ f n -> if is_active now f then n + 1 else n) t.flows 0

let overdue_flows t =
  let now = t.now () in
  let bound = due_bound now in
  Hashtbl.fold
    (fun _ f n ->
      let due =
        now -. f.epoch_start >= Epoch_estimator.epoch f.est
        || now -. f.last_seen > t.config.Taq_config.flow_idle_timeout
      in
      if
        due && not (Deadlines.mem t.due f && Deadlines.key t.due f <= bound)
      then n + 1
      else n)
    t.flows 0

let clock_monotone t = t.clock_monotone

let mean_epoch t =
  let acc = ref 0.0 and n = ref 0 in
  Hashtbl.iter
    (fun _ f ->
      acc := !acc +. Epoch_estimator.epoch f.est;
      incr n)
    t.flows;
  if !n = 0 then 1.0 else !acc /. float_of_int !n

let fair_share_bps ?flow t =
  let flow_epoch, mean =
    match (t.config.Taq_config.fairness_model, flow) with
    | Fair_share.Proportional_rtt, Some flow ->
        (epoch_len t ~flow, mean_epoch t)
    | Fair_share.Proportional_rtt, None | Fair_share.Fair_queuing, _ ->
        (1.0, 1.0)
  in
  Fair_share.per_flow ~model:t.config.Taq_config.fairness_model
    ~capacity_bps:t.config.Taq_config.capacity_bps
    ~active_flows:(active_flow_count t) ~flow_epoch ~mean_epoch:mean ()

(* Pool-level accounting (§4.3): a flow's pool is the unit of fairness
   when enabled; pool-less flows are singleton pools keyed by their
   negated id. *)
let pool_key_of f = if f.pool >= 0 then f.pool else -f.id - 2

let active_pool_count t =
  let now = t.now () in
  let pools = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ f ->
      if is_active now f then Hashtbl.replace pools (pool_key_of f) ())
    t.flows;
  Hashtbl.length pools

let pool_rate_bps t ~flow =
  match find t flow with
  | exception Not_found -> 0.0
  | f ->
      let key = pool_key_of f in
      let acc = ref 0.0 in
      Hashtbl.iter
        (fun _ g ->
          if pool_key_of g = key && Taq_util.Ewma.is_initialized g.rate then
            acc := !acc +. Taq_util.Ewma.value g.rate)
        t.flows;
      !acc

let pool_fair_share_bps t =
  Fair_share.per_flow ~model:t.config.Taq_config.fairness_model
    ~capacity_bps:t.config.Taq_config.capacity_bps
    ~active_flows:(active_pool_count t) ()

let below_fair_share t ~flow =
  if t.config.Taq_config.pool_fairness then
    Fair_share.is_below ~rate_bps:(pool_rate_bps t ~flow)
      ~fair_bps:(pool_fair_share_bps t)
  else
    Fair_share.is_below ~rate_bps:(rate_bps t ~flow)
      ~fair_bps:(fair_share_bps ~flow t)

let pool_of t ~flow = try (find t flow).pool with Not_found -> -1

module Packet = Taq_net.Packet

type classification = New_data | Retransmission

(* A flow's clock, all floats so that stores and reads do not box.
   [epoch] is its estimator's current value: it is set when the flow is
   created and again after each [Epoch_estimator.note_packet], the only
   call that changes the estimate. *)
type times = {
  mutable last_seen : float;
  mutable epoch_start : float;
  mutable epoch : float;
}

type flow = {
  id : int;
  slot : int;  (* index into the tracker's slab *)
  mutable pool : int;
  est : Epoch_estimator.t;
  mutable state : Flow_state.t;
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
  times : times;
}

(* Per-slot arrays grow by doubling; new cells hold [fill]. *)
let grow_to a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A binary min-heap of slots keyed by a deadline. Keys and slots live
   in flat parallel arrays and [pos] maps a slot to its heap position
   (-1 when absent), so an entry is re-keyed or removed in O(log n). A
   sift moves floats and ints only: it stores no pointer and pays no
   write barrier.

   Keys are lower bounds: a key never sits above its flow's true
   deadline. Deadlines that move earlier are re-keyed eagerly
   ([decrease]); deadlines that move later are left stale and re-keyed
   when the entry reaches the top. *)
module Deadlines = struct
  type t = {
    mutable keys : float array;
    mutable slots : int array;
    mutable pos : int array;  (* by slot *)
    mutable size : int;
  }

  let create () = { keys = [||]; slots = [||]; pos = [||]; size = 0 }

  let reserve h n = h.pos <- grow_to h.pos n (-1)

  let[@inline] mem h s = h.pos.(s) >= 0

  let[@inline] min_key h = if h.size = 0 then infinity else h.keys.(0)

  let[@inline] top h = h.slots.(0)

  let[@inline] key h s = h.keys.(h.pos.(s))

  (* Sift up from hole [i] and land [s] there: parents with later keys
     slide down one level each. *)
  let sift_up h i k s =
    let keys = h.keys and slots = h.slots and pos = h.pos in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pk = keys.(parent) in
      if k < pk then begin
        let ps = slots.(parent) in
        keys.(!i) <- pk;
        slots.(!i) <- ps;
        pos.(ps) <- !i;
        i := parent
      end
      else continue := false
    done;
    keys.(!i) <- k;
    slots.(!i) <- s;
    pos.(s) <- !i

  let sift_down h i k s =
    let keys = h.keys and slots = h.slots and pos = h.pos and n = h.size in
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
          let cs = slots.(c) in
          keys.(!i) <- ck;
          slots.(!i) <- cs;
          pos.(cs) <- !i;
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- k;
    slots.(!i) <- s;
    pos.(s) <- !i

  let push h s k =
    let cap = Array.length h.keys in
    if h.size = cap then begin
      let ncap = Stdlib.max 16 (2 * cap) in
      h.keys <- grow_to h.keys ncap 0.0;
      h.slots <- grow_to h.slots ncap 0
    end;
    h.size <- h.size + 1;
    sift_up h (h.size - 1) k s

  let remove h s =
    let i = h.pos.(s) in
    h.pos.(s) <- -1;
    let n = h.size - 1 in
    h.size <- n;
    if i < n then begin
      let k = h.keys.(n) and last = h.slots.(n) in
      if i > 0 && k < h.keys.((i - 1) / 2) then sift_up h i k last
      else sift_down h i k last
    end

  let[@inline] decrease h s k = if k < key h s then sift_up h h.pos.(s) k s

  (* The lazy key increase: the top entry's deadline has moved later. *)
  let[@inline] rekey_top h k = sift_down h 0 k h.slots.(0)
end

(* A hashed timing wheel of slots keyed by a deadline: [n_buckets]
   buckets of [width] seconds, each an intrusive doubly linked list
   threaded through per-slot [next]/[prev] arrays. An entry with key
   [k] is filed in absolute bucket [max cursor (bucket_of k)], at index
   [land mask]; insert, remove and decrease-key are O(1). A drain walks
   the buckets from [cursor] up to its bound's and visits the entries
   whose key is at most the bound; keys further out that hash to the
   same bucket are skipped. Keys are lower bounds, as in [Deadlines].

   Exactness: [bucket_of] is monotone (correctly rounded division, then
   [floor]), so key <= bound implies bucket_of key <= bucket_of bound
   and no due entry sits in a bucket past the walk. An entry filed
   below the cursor is clamped to it, and the cursor's bucket is walked
   by every drain. *)
module Wheel = struct
  let width = 0.05

  let n_buckets = 64 (* a power of two *)

  let mask = n_buckets - 1

  type t = {
    mutable cursor : int;  (* absolute bucket the next drain starts at *)
    mutable heads : int array;  (* by bucket index; -1 when empty *)
    mutable keys : float array;  (* by slot *)
    mutable next : int array;  (* by slot; -1 at a bucket's tail *)
    mutable prev : int array;  (* by slot; -1 at a bucket's head *)
    mutable home : int array;  (* by slot: bucket index, -1 when absent *)
    mutable held : int;  (* entries held back by a drain, via [next] *)
  }

  let[@inline] bucket_of k = int_of_float (Float.floor (k /. width))

  let create ~now =
    {
      cursor = bucket_of now;
      heads = [||];
      keys = [||];
      next = [||];
      prev = [||];
      home = [||];
      held = -1;
    }

  let reserve w n =
    if Array.length w.heads = 0 then w.heads <- Array.make n_buckets (-1);
    w.keys <- grow_to w.keys n 0.0;
    w.next <- grow_to w.next n (-1);
    w.prev <- grow_to w.prev n (-1);
    w.home <- grow_to w.home n (-1)

  let[@inline] mem w s = w.home.(s) >= 0

  let[@inline] key w s = w.keys.(s)

  let[@inline] index w k =
    let b = bucket_of k in
    (if b < w.cursor then w.cursor else b) land mask

  let link w s k =
    let b = index w k in
    let first = w.heads.(b) in
    w.keys.(s) <- k;
    w.home.(s) <- b;
    w.prev.(s) <- -1;
    w.next.(s) <- first;
    if first >= 0 then w.prev.(first) <- s;
    w.heads.(b) <- s

  let unlink w s =
    let b = w.home.(s) and p = w.prev.(s) and n = w.next.(s) in
    if p >= 0 then w.next.(p) <- n else w.heads.(b) <- n;
    if n >= 0 then w.prev.(n) <- p;
    w.home.(s) <- -1

  let decrease w s k =
    if k < w.keys.(s) then
      if index w k = w.home.(s) then w.keys.(s) <- k
      else begin
        unlink w s;
        link w s k
      end

  (* An entry whose fresh key still falls within the drain's bound is
     held back and re-filed once the drain has moved the cursor. Filed
     at once, it could be visited again by the same drain, or land in a
     bucket behind the new cursor that no later drain walks. *)
  let hold w s k =
    w.keys.(s) <- k;
    w.next.(s) <- w.held;
    w.held <- s

  let release_held w =
    let s = ref w.held in
    w.held <- -1;
    while !s >= 0 do
      let slot = !s in
      s := w.next.(slot);
      link w slot w.keys.(slot)
    done

  (* Whether a drain up to [bound] or later visits [s]. *)
  let will_visit w s ~bound =
    mem w s && w.keys.(s) <= bound && w.home.(s) = index w w.keys.(s)
end

let wheel_width = Wheel.width

(* The time [read_clock] last returned and the latest time read so
   far; apart when the clock stepped back. *)
type clock = { mutable read : float; mutable latest : float }

type t = {
  config : Taq_config.t;
  now : unit -> float;
  flows : (int, flow) Hashtbl.t;
  (* The record the last lookup found, or [vacant]: packets of one flow
     come in runs, and classifying one asks about its flow several
     times. [forget] clears it. *)
  mutable last : flow;
  (* The slab: every tracked flow owns a dense slot, the index [active]
     and [due] file it under. Vacated slots are reused before the slab
     grows; the per-slot arrays grow with it, on first use. *)
  mutable slab : flow array;  (* a vacated slot holds [vacant] *)
  mutable free : int array;  (* vacated slots, a stack *)
  mutable n_free : int;
  mutable n_slots : int;  (* slots handed out so far *)
  vacant : flow;
  (* Flows counted by [active_flow_count], keyed by the expiry of their
     active window. Every tracked flow outside it is inactive. *)
  active : Deadlines.t;
  (* Every tracked flow, keyed by its next epoch boundary or idle
     expiry, whichever comes first. *)
  due : Wheel.t;
  clock : clock;  (* the heap and wheel need [latest] monotone *)
  mutable clock_monotone : bool;
  mutable cap_evictions : int;
  mutable peak_tracked : int;
  (* Pre-resolved observability counters (dummy refs when obs is off,
     so the rare-event hot paths below stay branch-free). *)
  obs_flows_created : int ref;
  obs_evictions : int ref;
  obs_cap_evictions : int ref;
}

let make_flow config ~id ~slot ~pool ~now =
  let est = Epoch_estimator.create config.Taq_config.epoch_source in
  {
    id;
    slot;
    pool;
    est;
    state = Flow_state.initial;
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
    times =
      { last_seen = now; epoch_start = now; epoch = Epoch_estimator.epoch est };
  }

let create ?obs ~config ~now () =
  let obs = Option.value obs ~default:Taq_obs.Obs.off in
  let start = now () in
  (* The placeholder's slot is -1, so a lookup never takes it for a
     flow. *)
  let vacant = make_flow config ~id:(-1) ~slot:(-1) ~pool:(-1) ~now:start in
  {
    config;
    now;
    flows = Hashtbl.create 256;
    last = vacant;
    slab = [||];
    free = [||];
    n_free = 0;
    n_slots = 0;
    vacant;
    active = Deadlines.create ();
    (* A restart creates a tracker mid-run: the wheel starts there. *)
    due = Wheel.create ~now:start;
    clock = { read = neg_infinity; latest = neg_infinity };
    clock_monotone = true;
    cap_evictions = 0;
    peak_tracked = 0;
    obs_flows_created = Taq_obs.Obs.labeled_ref obs "tracker.flows_created";
    obs_evictions = Taq_obs.Obs.labeled_ref obs "tracker.evictions";
    obs_cap_evictions = Taq_obs.Obs.labeled_ref obs "tracker.cap_evictions";
  }

let read_clock t =
  let now = t.now () and c = t.clock in
  c.read <- now;
  if now < c.latest then t.clock_monotone <- false else c.latest <- now;
  now

(* Pops and drains run up to [now] plus this slack. A flow whose
   predicate flipped at [now] has a deadline within a few ulp of [now]
   (both are rounded sums and differences of the same operands); the
   slack is many orders of magnitude above that at any simulated time,
   so no due flow is ever skipped. Visiting a little early is harmless:
   every decision re-evaluates the exact predicate. *)
let[@inline] due_bound now = now +. (1e-9 *. (1.0 +. Float.abs now))

let[@inline] window ~epoch = Float.max 1.0 (5.0 *. epoch)

let[@inline] active_key f =
  let tm = f.times in
  tm.last_seen +. window ~epoch:tm.epoch

let[@inline] due_key t f =
  let tm = f.times in
  let boundary = tm.epoch_start +. tm.epoch
  and idle = tm.last_seen +. t.config.Taq_config.flow_idle_timeout in
  if boundary < idle then boundary else idle

(* Hand out a slot, growing the slab and every per-slot array together
   when no vacated slot is left. *)
let alloc_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let s = t.n_slots in
    if s = Array.length t.slab then begin
      let n = Stdlib.max 16 (2 * s) in
      t.slab <- grow_to t.slab n t.vacant;
      t.free <- grow_to t.free n 0;
      Deadlines.reserve t.active n;
      Wheel.reserve t.due n
    end;
    t.n_slots <- s + 1;
    s
  end

let forget t f =
  let s = f.slot in
  Hashtbl.remove t.flows f.id;
  t.last <- t.vacant;
  if Deadlines.mem t.active s then Deadlines.remove t.active s;
  if Wheel.mem t.due s then Wheel.unlink t.due s;
  (* Do not keep a forgotten flow reachable from its vacated slot. *)
  t.slab.(s) <- t.vacant;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

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
          let seen = f.times.last_seen and vseen = v.times.last_seen in
          if seen < vseen || (seen = vseen && id < vid) then
            victim := Some (id, f))
    t.flows;
  match !victim with
  | None -> ()
  | Some (_, f) ->
      forget t f;
      t.cap_evictions <- t.cap_evictions + 1;
      incr t.obs_cap_evictions

(* [Hashtbl.find], through the remembered record. *)
let find t flow =
  let f = t.last in
  if f.id = flow && f.slot >= 0 then f
  else begin
    let f = Hashtbl.find t.flows flow in
    t.last <- f;
    f
  end

(* After [read_clock]: a new flow starts at the time it read. *)
let lookup t ~flow ~pool =
  match find t flow with
  | f -> f
  | exception Not_found ->
      if Hashtbl.length t.flows >= t.config.Taq_config.max_tracked_flows then
        evict_lru t;
      let slot = alloc_slot t in
      let f = make_flow t.config ~id:flow ~slot ~pool ~now:t.clock.read in
      t.slab.(slot) <- f;
      Hashtbl.replace t.flows flow f;
      t.last <- f;
      Deadlines.push t.active slot (active_key f);
      Wheel.link t.due slot (due_key t f);
      incr t.obs_flows_created;
      let n = Hashtbl.length t.flows in
      if n > t.peak_tracked then t.peak_tracked <- n;
      f

(* [f] was just seen: it is active again, and its window may have
   shrunk with the epoch estimate. *)
let refresh_active t f =
  let k = active_key f in
  if Deadlines.mem t.active f.slot then Deadlines.decrease t.active f.slot k
  else Deadlines.push t.active f.slot k

(* Builds nothing: the state machine takes the counts one by one, and
   the epoch start is rolled in place by [catch_up]. *)
let roll_one_epoch f =
  f.state <-
    Flow_state.step_counts f.state ~new_pkts:f.new_pkts
      ~retx_pkts:f.retx_pkts ~drops:f.drops_this_epoch
      ~prev_new_pkts:f.prev_new_pkts ~outstanding_drops:f.outstanding_drops;
  if f.new_pkts = 0 && f.retx_pkts = 0 then
    f.silence_epochs <- f.silence_epochs + 1
  else f.silence_epochs <- 0;
  Taq_util.Ewma.update f.rate
    (float_of_int (f.bytes_this_epoch * 8) /. f.times.epoch);
  f.prev_new_pkts <- f.new_pkts;
  f.drops_prev_epoch <- f.drops_this_epoch;
  f.new_pkts <- 0;
  f.retx_pkts <- 0;
  f.bytes_this_epoch <- 0;
  f.drops_this_epoch <- 0;
  f.epochs_observed <- f.epochs_observed + 1

(* Advance the flow's epoch boundary up to the time [read_clock] read;
   several epochs may have elapsed silently. No roll changes the epoch
   estimate. Bounded per call so a flow returning after a very long
   idle period cannot stall the queue. Takes no float: a float argument
   would be boxed. *)
let catch_up t f =
  let now = t.clock.read and tm = f.times in
  let budget = ref 64 in
  while !budget > 0 && now -. tm.epoch_start >= tm.epoch do
    roll_one_epoch f;
    tm.epoch_start <- tm.epoch_start +. tm.epoch;
    decr budget
  done;
  if !budget = 0 then tm.epoch_start <- now

let observe_syn t ~flow ~pool =
  let now = read_clock t in
  let f = lookup t ~flow ~pool in
  f.pool <- pool;
  f.times.last_seen <- now;
  Epoch_estimator.note_syn f.est ~time:now;
  refresh_active t f

let observe_data t (p : Packet.t) =
  let now = read_clock t in
  let f = lookup t ~flow:p.flow ~pool:p.pool in
  catch_up t f;
  f.times.last_seen <- now;
  Epoch_estimator.note_packet f.est ~time:now;
  (* The epoch estimate may have shrunk, pulling both deadlines in. *)
  f.times.epoch <- Epoch_estimator.epoch f.est;
  refresh_active t f;
  Wheel.decrease t.due f.slot (due_key t f);
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
  match find t p.flow with
  | f ->
      f.drops_this_epoch <- f.drops_this_epoch + 1;
      f.outstanding_drops <- f.outstanding_drops + 1
  | exception Not_found -> ()

(* Only flows whose key is due are visited. For every other flow the
   epoch boundary has not come, so [catch_up] would not roll, and the
   idle check is false. Flows are independent, so skipping them, and
   visiting the due ones in bucket rather than key order, is exact. *)
let tick t =
  let now = read_clock t in
  let bound = due_bound now in
  let timeout = t.config.Taq_config.flow_idle_timeout in
  let w = t.due in
  let last = Wheel.bucket_of bound in
  let expired = ref 0 in
  (* However far the clock jumped, each bucket is walked once. *)
  if Array.length w.heads > 0 then
    for b = w.cursor to w.cursor + Stdlib.min (last - w.cursor) Wheel.mask do
      let next = ref w.heads.(b land Wheel.mask) in
      while !next >= 0 do
        let s = !next in
        next := w.next.(s);
        if Wheel.key w s <= bound then begin
          Wheel.unlink w s;
          let f = t.slab.(s) in
          catch_up t f;
          if now -. f.times.last_seen > timeout then begin
            forget t f;
            incr expired
          end
          else begin
            let k = due_key t f in
            if k > bound then Wheel.link w s k else Wheel.hold w s k
          end
        end
      done
    done;
  if last > w.cursor then w.cursor <- last;
  Wheel.release_held w;
  if !expired > 0 then t.obs_evictions := !(t.obs_evictions) + !expired

(* Per-flow accessors read unknown flows as a fresh flow would.
   [find] with [Not_found] allocates nothing per lookup. *)
let state t ~flow = try (find t flow).state with Not_found -> Flow_state.initial

let silence_epochs t ~flow =
  try (find t flow).silence_epochs with Not_found -> 0

let epoch_len t ~flow =
  match find t flow with
  | f -> f.times.epoch
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

(* A flow is new for its first epochs (while still in slow start);
   its packets are scheduled from the NewFlow queue. *)
let slowstart_epochs = 3

let is_new_flow t ~flow =
  match find t flow with
  | f -> (
      f.epochs_observed < slowstart_epochs
      &&
      match f.state with
      | Flow_state.Slow_start -> true
      | Flow_state.Normal | Flow_state.Loss_recovery
      | Flow_state.Timeout_silence | Flow_state.Timeout_recovery
      | Flow_state.Extended_silence | Flow_state.Idle ->
          false)
  | exception Not_found -> true

let[@inline] is_active now f =
  now -. f.times.last_seen <= window ~epoch:f.times.epoch

(* Entries popped at [now] whose fresh key still falls within the
   slack are held back until the pop loop ends, then re-pushed. *)
let rec restore t = function
  | [] -> ()
  | s :: rest ->
      Deadlines.push t.active s (active_key t.slab.(s));
      restore t rest

(* Pop the flows whose window may have closed: the ones still active
   are re-keyed to their current expiry, the rest leave the heap. *)
let active_flow_count t =
  let now = read_clock t in
  let bound = due_bound now in
  let h = t.active in
  let held = ref [] in
  while Deadlines.min_key h <= bound do
    let s = Deadlines.top h in
    let f = t.slab.(s) in
    if is_active now f then begin
      let k = active_key f in
      if k > bound then Deadlines.rekey_top h k
      else begin
        Deadlines.remove h s;
        held := s :: !held
      end
    end
    else Deadlines.remove h s
  done;
  if !held <> [] then restore t !held;
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
      let tm = f.times in
      let due =
        now -. tm.epoch_start >= tm.epoch
        || now -. tm.last_seen > t.config.Taq_config.flow_idle_timeout
      in
      (* A drain visits the flow its slot maps to. *)
      let visited =
        t.slab.(f.slot) == f && Wheel.will_visit t.due f.slot ~bound
      in
      if due && not visited then n + 1 else n)
    t.flows 0

let clock_monotone t = t.clock_monotone

let fair_share_bps t =
  Fair_share.per_flow ~capacity_bps:t.config.Taq_config.capacity_bps
    ~active_flows:(active_flow_count t)

let below_fair_share t ~flow =
  Fair_share.is_below ~rate_bps:(rate_bps t ~flow) ~fair_bps:(fair_share_bps t)

let pool_of t ~flow = try (find t flow).pool with Not_found -> -1

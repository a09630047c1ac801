module Packet = Taq_net.Packet
module Int_tbl = Taq_util.Int_tbl

type classification = New_data | Retransmission

(* A flow's clock and its two estimators, all floats so that stores and
   reads do not box. The epoch estimator (Section 3.3): [epoch] is the
   current estimate, the oracle RTT or, when estimated, the default
   until the first sample and then [smoothed], the moving average of
   the samples, clamped to the configured bounds. [syn_at] is the time
   of the flow's last SYN, [burst_start] that of the packet that began
   its current burst, [last_packet] that of its last data packet; only
   an estimating tracker reads them. [rate] is the moving average of
   the flow's goodput per epoch. [nan] means no sample, or no such
   packet, yet. *)
type times = {
  mutable last_seen : float;
  mutable epoch_start : float;
  mutable epoch : float;
  mutable smoothed : float;
  mutable syn_at : float;
  mutable burst_start : float;
  mutable last_packet : float;
  mutable rate : float;
}

type flow = {
  id : int;
  slot : int;  (* index into the tracker's slab *)
  mutable pool : int;
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
  mutable rolled : int;  (* the tracker's tick count at the last roll *)
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

(* Every tracked flow, least recently seen first: an intrusive doubly
   linked list threaded through per-slot [next]/[prev] arrays. A flow
   joins at the tail when it is created and moves there whenever it is
   seen, at the latest time read; under a monotone clock [last_seen]
   therefore never decreases from head to tail, and the flows idle past
   any bound are a prefix of the list. Every operation is O(1). *)
module Lru = struct
  type t = {
    mutable head : int;  (* -1 when empty *)
    mutable tail : int;  (* -1 when empty *)
    mutable next : int array;  (* by slot; -1 at the tail *)
    mutable prev : int array;  (* by slot; -1 at the head *)
  }

  let create () = { head = -1; tail = -1; next = [||]; prev = [||] }

  let reserve l n =
    l.next <- grow_to l.next n (-1);
    l.prev <- grow_to l.prev n (-1)

  let unlink l s =
    let p = l.prev.(s) and n = l.next.(s) in
    if p >= 0 then l.next.(p) <- n else l.head <- n;
    if n >= 0 then l.prev.(n) <- p else l.tail <- p

  let push_tail l s =
    let last = l.tail in
    l.prev.(s) <- last;
    l.next.(s) <- -1;
    if last >= 0 then l.next.(last) <- s else l.head <- s;
    l.tail <- s

  let[@inline] to_tail l s =
    if l.tail <> s then begin
      unlink l s;
      push_tail l s
    end
end

(* The time [read_clock] last returned and the latest time read so
   far, apart when the clock stepped back; the time of the last tick;
   and the longest gap between ticks over which rolls may be left to
   the flows' next reads (see [tick]). All floats, so stores do not
   box. *)
type clock = {
  mutable read : float;
  mutable latest : float;
  mutable tick : float;
  long_gap : float;
}

(* The epoch source, unpacked into floats. The oracle's RTT is
   [default_epoch]; the other fields serve estimation only. *)
type estimator = {
  default_epoch : float;
  min_epoch : float;
  max_epoch : float;
  alpha : float;
}

type t = {
  config : Taq_config.t;
  now : unit -> float;
  flows : flow Int_tbl.t;
  estimated : bool;  (* false for the oracle *)
  est : estimator;
  (* The Recovery priority of the retransmission [classify_data] last
     classified. *)
  mutable priority : int;
  (* The slab: every tracked flow owns a dense slot, the index [active]
     and [seen] file it under. Vacated slots are reused before the slab
     grows; the per-slot arrays grow with it, on first use. *)
  mutable slab : flow array;  (* a vacated slot holds [vacant] *)
  mutable free : int array;  (* vacated slots, a stack *)
  mutable n_free : int;
  mutable n_slots : int;  (* slots handed out so far *)
  vacant : flow;
  (* Flows counted by [active_flow_count], keyed by the expiry of their
     active window. Every tracked flow outside it is inactive. *)
  active : Deadlines.t;
  (* Every tracked flow, least recently seen first. *)
  seen : Lru.t;
  mutable ticks : int;  (* ticks so far *)
  clock : clock;  (* the heap and the list need [latest] monotone *)
  mutable clock_monotone : bool;
  mutable cap_evictions : int;
  mutable peak_tracked : int;
  (* Pre-resolved observability counters (dummy refs when obs is off,
     so the rare-event hot paths below stay branch-free). *)
  obs_flows_created : int ref;
  obs_evictions : int ref;
  obs_cap_evictions : int ref;
}

let make_flow ~epoch ~id ~slot ~pool ~now ~ticks =
  {
    id;
    slot;
    pool;
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
    rolled = ticks;
    times =
      {
        last_seen = now;
        epoch_start = now;
        epoch;
        smoothed = nan;
        syn_at = nan;
        burst_start = nan;
        last_packet = nan;
        rate = nan;
      };
  }

(* The gap between ticks after which a tick rolls every flow itself
   (see [tick]): 32 of the shortest epochs a flow can have. The oracle
   never changes; an estimate starts at its default and never falls
   below its floor. The first estimate can cut the default down to the
   floor in one packet; a later one at most halves the estimate, since
   a burst starts only after a gap of half an epoch. When one packet
   could cut an epoch more than 24x, every tick rolls every flow. *)
let long_gap (config : Taq_config.t) =
  let shortest, cut =
    match config.Taq_config.epoch_source with
    | Taq_config.Oracle rtt -> (rtt, 1.0)
    | Taq_config.Estimated { default_epoch; min_epoch; _ } ->
        ( Float.min default_epoch min_epoch,
          Float.max 2.0 (default_epoch /. min_epoch) )
  in
  if cut <= 24.0 then 32.0 *. shortest else neg_infinity

let create ?obs ~config ~now () =
  let obs = Option.value obs ~default:Taq_obs.Obs.off in
  let estimated, est =
    match config.Taq_config.epoch_source with
    | Taq_config.Oracle rtt ->
        ( false,
          { default_epoch = rtt; min_epoch = rtt; max_epoch = rtt; alpha = 1.0 }
        )
    | Taq_config.Estimated { default_epoch; min_epoch; max_epoch; alpha } ->
        if alpha <= 0.0 || alpha > 1.0 then
          invalid_arg "Flow_tracker.create: alpha";
        (true, { default_epoch; min_epoch; max_epoch; alpha })
  in
  let start = now () in
  let vacant =
    make_flow ~epoch:est.default_epoch ~id:(-1) ~slot:(-1) ~pool:(-1)
      ~now:start ~ticks:0
  in
  {
    config;
    now;
    flows = Int_tbl.create 256;
    estimated;
    est;
    priority = 0;
    slab = [||];
    free = [||];
    n_free = 0;
    n_slots = 0;
    vacant;
    active = Deadlines.create ();
    seen = Lru.create ();
    ticks = 0;
    (* A restart creates a tracker mid-run: the first tick's gap is
       measured from there. *)
    clock =
      {
        read = neg_infinity;
        latest = neg_infinity;
        tick = start;
        long_gap = long_gap config;
      };
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

(* Pops run up to [now] plus this slack. A flow whose window closed at
   [now] has a deadline within a few ulp of [now] (both are rounded
   sums and differences of the same operands); the slack is many orders
   of magnitude above that at any simulated time, so no closed window
   is ever skipped. Popping a little early is harmless: the count
   re-evaluates the exact predicate. *)
let[@inline] due_bound now = now +. (1e-9 *. (1.0 +. Float.abs now))

(* [Float.max 1.0 (5.0 *. epoch)]: the epoch is finite and not nan,
   so a plain comparison gives the same float without the library
   call. *)
let[@inline] window ~epoch =
  let w = 5.0 *. epoch in
  if w > 1.0 then w else 1.0

let[@inline] active_key f =
  let tm = f.times in
  tm.last_seen +. window ~epoch:tm.epoch

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
      Lru.reserve t.seen n
    end;
    t.n_slots <- s + 1;
    s
  end

let forget t f =
  let s = f.slot in
  Int_tbl.remove t.flows f.id;
  if Deadlines.mem t.active s then Deadlines.remove t.active s;
  Lru.unlink t.seen s;
  (* Do not keep a forgotten flow reachable from its vacated slot. *)
  t.slab.(s) <- t.vacant;
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

(* The hard state bound: inserting into a full table evicts the
   least-recently-seen entry first (ties broken by lowest id for
   determinism). Idle flows age to the LRU end within an RTT, so under
   a one-packet-flow flood this is exactly idle-first eviction; the
   legitimate flows being actively forwarded keep refreshing
   [last_seen] and survive. The least recently seen flows head the
   list, so only the head's ties are walked. *)
let evict_lru t =
  let l = t.seen in
  if l.head >= 0 then begin
    let victim = ref t.slab.(l.head) in
    let seen = !victim.times.last_seen in
    let s = ref l.next.(l.head) in
    while !s >= 0 && t.slab.(!s).times.last_seen = seen do
      let f = t.slab.(!s) in
      if f.id < !victim.id then victim := f;
      s := l.next.(!s)
    done;
    forget t !victim;
    t.cap_evictions <- t.cap_evictions + 1;
    incr t.obs_cap_evictions
  end

(* [Taq_util.Ewma.update]'s arithmetic on a flat float: the first
   sample replaces [nan], later ones fold in as
   [((1 - alpha) v) + (alpha x)]. Inlined, so nothing is boxed. *)
let[@inline] ewma v ~alpha x =
  if Float.is_nan v then x else ((1.0 -. alpha) *. v) +. (alpha *. x)

(* The weight of an epoch's goodput in a flow's rate. *)
let rate_alpha = 0.3

(* Builds nothing: the state machine takes the counts one by one, and
   the epoch start and the rate are rolled in place. *)
let roll_one_epoch f =
  let tm = f.times in
  f.state <-
    Flow_state.step_counts f.state ~new_pkts:f.new_pkts
      ~retx_pkts:f.retx_pkts ~drops:f.drops_this_epoch
      ~prev_new_pkts:f.prev_new_pkts ~outstanding_drops:f.outstanding_drops;
  if f.new_pkts = 0 && f.retx_pkts = 0 then
    f.silence_epochs <- f.silence_epochs + 1
  else f.silence_epochs <- 0;
  tm.rate <-
    ewma tm.rate ~alpha:rate_alpha
      (float_of_int (f.bytes_this_epoch * 8) /. tm.epoch);
  f.prev_new_pkts <- f.new_pkts;
  f.drops_prev_epoch <- f.drops_this_epoch;
  f.new_pkts <- 0;
  f.retx_pkts <- 0;
  f.bytes_this_epoch <- 0;
  f.drops_this_epoch <- 0;
  tm.epoch_start <- tm.epoch_start +. tm.epoch;
  f.epochs_observed <- f.epochs_observed + 1

(* Roll the flow through every epoch boundary up to [until]; several
   epochs may have elapsed silently. No roll changes the epoch
   estimate. After [budget] rolls the epoch start jumps to [until]
   instead. Inlined, so [until] is not boxed. *)
let[@inline] roll_through f until ~budget =
  let tm = f.times in
  let budget = ref budget in
  while !budget > 0 && until -. tm.epoch_start >= tm.epoch do
    roll_one_epoch f;
    decr budget
  done;
  if !budget = 0 then tm.epoch_start <- until

(* Make the rolls that the ticks since the flow's last roll left to it,
   as if each tick had caught the flow up. Only a data packet changes
   the epoch, after its lookup has settled the flow, so each of those
   ticks would have used the epoch the flow has now. Each stayed within
   [long_gap] of the one before, so none would have spent its budget of
   64 rolls (see [tick]), and rolling straight through the last tick's
   time makes the same rolls in the same order. *)
let settle t f =
  if f.rolled < t.ticks then begin
    roll_through f t.clock.tick ~budget:max_int;
    f.rolled <- t.ticks
  end

(* [Int_tbl.find], then settled: every read of a flow comes through
   here, so none sees a roll still owed. *)
let find t flow =
  let f = Int_tbl.find t.flows flow in
  settle t f;
  f

(* After [read_clock]: a new flow starts at the time it read. It has
   missed no tick, so it counts as rolled through the last one. *)
let lookup t ~flow ~pool =
  match find t flow with
  | f -> f
  | exception Not_found ->
      if Int_tbl.length t.flows >= t.config.Taq_config.max_tracked_flows then
        evict_lru t;
      let slot = alloc_slot t in
      let f =
        make_flow ~epoch:t.est.default_epoch ~id:flow ~slot ~pool
          ~now:t.clock.read ~ticks:t.ticks
      in
      t.slab.(slot) <- f;
      Int_tbl.replace t.flows flow f;
      Deadlines.push t.active slot (active_key f);
      Lru.push_tail t.seen slot;
      incr t.obs_flows_created;
      let n = Int_tbl.length t.flows in
      if n > t.peak_tracked then t.peak_tracked <- n;
      f

(* [f] was just seen: it is active again, its window may have shrunk
   with the epoch estimate, and it is now the most recently seen. *)
let refresh t f =
  let k = active_key f in
  if Deadlines.mem t.active f.slot then Deadlines.decrease t.active f.slot k
  else Deadlines.push t.active f.slot k;
  Lru.to_tail t.seen f.slot

(* Catch the flow up to the time [read_clock] read, at most 64 rolls
   per call, so a flow returning after a very long idle period cannot
   stall the queue. *)
let catch_up t f = roll_through f t.clock.read ~budget:64

let observe_syn t ~flow ~pool =
  let now = read_clock t in
  let f = lookup t ~flow ~pool in
  f.pool <- pool;
  f.times.last_seen <- now;
  f.times.syn_at <- now;
  refresh t f

(* [Float.min max_epoch (Float.max min_epoch x)]. Samples are gaps
   between finite times and the estimate is a moving average of them,
   so neither is nan, and plain comparisons give the same float. *)
let[@inline] clamp e x =
  let x = if x > e.min_epoch then x else e.min_epoch in
  if x < e.max_epoch then x else e.max_epoch

let[@inline] sample e tm x =
  tm.smoothed <- ewma tm.smoothed ~alpha:e.alpha (clamp e x);
  tm.epoch <- clamp e tm.smoothed

(* The estimator at a data packet (Section 3.3). The first one after a
   SYN samples the SYN-to-data gap. After that, a gap of more than half
   an epoch since the previous packet starts a new burst, and the
   spacing between burst starts samples the epoch. *)
let[@inline] note_packet e tm now =
  if Float.is_nan tm.burst_start then begin
    if not (Float.is_nan tm.syn_at) then sample e tm (now -. tm.syn_at);
    tm.burst_start <- now
  end
  else if now -. tm.last_packet > 0.5 *. tm.epoch then begin
    sample e tm (now -. tm.burst_start);
    tm.burst_start <- now
  end;
  tm.last_packet <- now

(* A data packet of [f] at [now], the time [read_clock] read: catch the
   flow up, feed the estimators, count the packet. True for a
   retransmission. *)
let[@inline] observe t f (p : Packet.t) now =
  catch_up t f;
  let tm = f.times in
  tm.last_seen <- now;
  if t.estimated then note_packet t.est tm now;
  (* The epoch estimate may have shrunk, pulling the window in. *)
  refresh t f;
  f.bytes_this_epoch <- f.bytes_this_epoch + p.size;
  if p.seq <= f.highest_seq then begin
    f.retx_pkts <- f.retx_pkts + 1;
    f.outstanding_drops <- Stdlib.max 0 (f.outstanding_drops - 1);
    true
  end
  else begin
    f.new_pkts <- f.new_pkts + 1;
    f.highest_seq <- p.seq;
    false
  end

let observe_data t (p : Packet.t) =
  let now = read_clock t in
  let f = lookup t ~flow:p.flow ~pool:p.pool in
  if observe t f p now then Retransmission else New_data

(* The drop lands in the epoch the last tick left open. *)
let observe_drop t (p : Packet.t) =
  match find t p.flow with
  | f ->
      f.drops_this_epoch <- f.drops_this_epoch + 1;
      f.outstanding_drops <- f.outstanding_drops + 1
  | exception Not_found -> ()

(* Forget the flows idle past the timeout, a prefix of the list, and
   count the tick; rolls are left to each flow's next read ([settle]).
   That is exact while no tick would have spent a flow's budget of 64
   rolls. A flow rolled through the previous tick, or caught up at a
   packet since, is less than one of its epochs behind, counted in the
   epoch it had before that packet. With that packet's cut at most 24x
   (10x at default settings), a gap of at most 32 of the shortest
   epochs leaves every flow fewer than 64 rolls. After a longer gap
   this tick settles and catches up every flow, with the budget, as
   rolling at every tick would. *)
let tick t =
  let now = read_clock t in
  let c = t.clock and l = t.seen in
  let timeout = t.config.Taq_config.flow_idle_timeout in
  let expired = ref 0 in
  while l.head >= 0 && now -. t.slab.(l.head).times.last_seen > timeout do
    forget t t.slab.(l.head);
    incr expired
  done;
  if !expired > 0 then t.obs_evictions := !(t.obs_evictions) + !expired;
  if now -. c.tick > c.long_gap then begin
    let s = ref l.head in
    while !s >= 0 do
      let f = t.slab.(!s) in
      settle t f;
      catch_up t f;
      f.rolled <- t.ticks + 1;
      s := l.next.(!s)
    done
  end;
  t.ticks <- t.ticks + 1;
  c.tick <- now

(* Per-flow accessors read unknown flows as a fresh flow would.
   [find] with [Not_found] allocates nothing per lookup. *)
let state t ~flow =
  try (find t flow).state with Not_found -> Flow_state.initial

let silence_epochs t ~flow =
  try (find t flow).silence_epochs with Not_found -> 0

let epoch_len t ~flow =
  match find t flow with
  | f -> f.times.epoch
  | exception Not_found -> t.est.default_epoch

let epochs_observed t ~flow =
  try (find t flow).epochs_observed with Not_found -> 0

let[@inline] rate f =
  let r = f.times.rate in
  if Float.is_nan r then 0.0 else r

let rate_bps t ~flow =
  match find t flow with f -> rate f | exception Not_found -> 0.0

let outstanding_drops t ~flow =
  try (find t flow).outstanding_drops with Not_found -> 0

(* The record-level predicates [classify_data] reads; the accessors
   below read the same ones. *)
let[@inline] recent f = f.drops_this_epoch + f.drops_prev_epoch

let[@inline] overpenalized t drops =
  drops > t.config.Taq_config.overpenalize_drops

(* A flow is new for its first epochs (while still in slow start);
   its packets are scheduled from the NewFlow queue. *)
let slowstart_epochs = 3

let[@inline] new_flow f =
  f.epochs_observed < slowstart_epochs
  &&
  match f.state with
  | Flow_state.Slow_start -> true
  | Flow_state.Normal | Flow_state.Loss_recovery | Flow_state.Timeout_silence
  | Flow_state.Timeout_recovery | Flow_state.Extended_silence | Flow_state.Idle
    ->
      false

let recent_drops t ~flow =
  match find t flow with f -> recent f | exception Not_found -> 0

let is_overpenalized t ~flow = overpenalized t (recent_drops t ~flow)

let is_new_flow t ~flow =
  match find t flow with f -> new_flow f | exception Not_found -> true

(* The record as it stands: [find] would settle it. *)
let rolled t ~flow =
  match Int_tbl.find t.flows flow with
  | f -> f.rolled = t.ticks
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

(* The active count at the time [read_clock] last read. Pop the flows
   whose window may have closed: the ones still active are re-keyed to
   their current expiry, the rest leave the heap. *)
let count_active t =
  let now = t.clock.read in
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

let active_flow_count t =
  ignore (read_clock t);
  count_active t

let tracked_flow_count t = Int_tbl.length t.flows
let cap_evictions t = t.cap_evictions
let peak_tracked t = t.peak_tracked

let active_flow_count_scan t =
  let now = t.now () in
  Int_tbl.fold (fun _ f n -> if is_active now f then n + 1 else n) t.flows 0

(* Walks the list from its head while every link is mutual: a walk
   along mutual links starting at a node with no predecessor cannot
   revisit a node, so each listed flow is counted once. *)
let overdue_flows t =
  let now = t.now () and l = t.seen in
  let timeout = t.config.Taq_config.flow_idle_timeout in
  let listed = ref 0 and misplaced = ref 0 and fresh = ref false in
  let s = ref (if l.head >= 0 && l.prev.(l.head) < 0 then l.head else -1) in
  while !s >= 0 do
    let f = t.slab.(!s) in
    (match Int_tbl.find t.flows f.id with
    | g when g == f && f.slot = !s -> incr listed
    | _ | (exception Not_found) -> ());
    if now -. f.times.last_seen > timeout then begin
      if !fresh then incr misplaced
    end
    else fresh := true;
    let n = l.next.(!s) in
    s := if n >= 0 && l.prev.(n) = !s then n else -1
  done;
  Int_tbl.length t.flows - !listed + !misplaced

let clock_monotone t = t.clock_monotone

(* The fair share at the time [read_clock] last read. *)
let[@inline] share t =
  t.config.Taq_config.capacity_bps
  /. float_of_int (Stdlib.max 1 (count_active t))

let fair_share_bps t =
  ignore (read_clock t);
  share t

let below_fair_share t ~flow = rate_bps t ~flow < fair_share_bps t

let pool_of t ~flow = try (find t flow).pool with Not_found -> -1

let recovery_priority t = t.priority

(* One lookup and one clock read per data packet: the fair share counts
   the active flows at the time the observation read. *)
let classify_data t (p : Packet.t) =
  let now = read_clock t in
  let f = lookup t ~flow:p.flow ~pool:p.pool in
  if observe t f p now then begin
    t.priority <- f.silence_epochs;
    Taq_queues.Recovery
  end
  else if new_flow f then Taq_queues.New_flow
  else begin
    let below = rate f < share t in
    (* The OverPenalized queue (§4.1/§4.2): flows beyond the cumulative
       drop threshold, and, for flows already below their fair share,
       whose windows are small enough that any further loss means a
       timeout, flows with any drop in the current or previous
       epoch. *)
    let drops = recent f in
    if overpenalized t drops || (below && drops > 0) then
      Taq_queues.Over_penalized
    else if below then Taq_queues.Below_fair_share
    else Taq_queues.Above_fair_share
  end

module Check = Taq_check.Check
module Obs = Taq_obs.Obs

(* An event handle packs a slot index and that slot's generation at
   scheduling time into one immediate int. Scheduling allocates nothing:
   the action goes into a pooled slot table, the handle goes into the
   calendar as an int. Firing or cancelling a slot bumps its
   generation, which simultaneously invalidates every outstanding
   handle to it (stale [cancel]/[is_pending] are O(1) no-ops, never a
   crash) and lazily invalidates the calendar entry: a handle taken
   off the calendar whose generation no longer matches its slot is a
   cancelled event and is counted as skipped.

   The calendar is two structures that together keep the (time,
   scheduling order) order exactly:

   - the lane, a FIFO ring of handles scheduled for the current
     instant. Every zero-delay event lands here (a link delivery with
     [prop_delay = 0], a timer armed at delay 0) and never touches the
     heap;
   - the heap ([Event_heap]) for everything later, ordered by (time,
     seq).

   A heap entry due at [now] was filed while the clock was still
   earlier (had it been filed at [now] it would be in the lane), so it
   precedes every lane entry. Hence the rule: run heap entries due at
   [now], then drain the lane, then advance the clock. DESIGN.md
   ("Event calendar") has the full argument and the timer's. *)

type handle = int

let slot_bits = 21

let slot_mask = (1 lsl slot_bits) - 1

let max_slots = slot_mask + 1

let none : handle = -1

let null_action () = ()

let null_iaction (_ : int) = ()

(* [iargs] sentinel marking a slot whose action is the plain
   [unit -> unit] form. Callers of the int-payload API may not pass it
   as an argument (checked at schedule time). *)
let no_iarg = min_int

type t = {
  clock : float array;
      (* [| now; limit; stop |]: the clock, the latest time
         [Event_heap.pop_due] may pop, and [run]'s horizon. Float fields
         in this mixed record would box on every store, and a float
         passed across a module boundary is boxed too, so times travel
         in this flat array. *)
  at : float array;  (* one cell: the time of the entry being filed *)
  calendar : Event_heap.t;
  mutable lane : int array;  (* ring of handles due now; power-of-two size *)
  mutable lane_head : int;
  mutable lane_len : int;
  (* Event-slot table: parallel arrays indexed by slot, plus a free
     list. [gens.(slot)] is the generation a live handle must carry. *)
  mutable actions : (unit -> unit) array;
  (* Int-payload twin of [actions]: a slot scheduled via the [_i] API
     stores a shared [int -> unit] closure here plus its argument in
     [iargs], so per-event callers need not allocate a fresh closure to
     capture one int of context. *)
  mutable iactions : (int -> unit) array;
  mutable iargs : int array;
  mutable gens : int array;
  mutable free : int array;
  mutable free_top : int;
  mutable slots_used : int;  (* never-yet-used slots start here *)
  check : Check.t;
  obs : Obs.t;
  (* Both fixed for the simulator's life, so read once here rather
     than through a call on every event. *)
  checking : bool;  (* [Check.on check Engine] *)
  counting : bool;  (* [Obs.enabled obs] *)
}

let create ?check ?obs () =
  let check = Option.value check ~default:Check.off in
  let obs = Option.value obs ~default:Obs.off in
  {
    clock = [| 0.0; 0.0; 0.0 |];
    at = [| 0.0 |];
    calendar = Event_heap.create ();
    lane = [||];
    lane_head = 0;
    lane_len = 0;
    actions = [||];
    iactions = [||];
    iargs = [||];
    gens = [||];
    free = [||];
    free_top = 0;
    slots_used = 0;
    check;
    obs;
    checking = Check.on check Check.Engine;
    counting = Obs.enabled obs;
  }

let check t = t.check

let obs t = t.obs

let[@inline] now t = t.clock.(0)

let grow_slots t =
  let cap = Array.length t.gens in
  let ncap = Stdlib.min max_slots (Stdlib.max 64 (cap * 2)) in
  let actions = Array.make ncap null_action in
  Array.blit t.actions 0 actions 0 cap;
  let iactions = Array.make ncap null_iaction in
  Array.blit t.iactions 0 iactions 0 cap;
  let iargs = Array.make ncap no_iarg in
  Array.blit t.iargs 0 iargs 0 cap;
  let gens = Array.make ncap 0 in
  Array.blit t.gens 0 gens 0 cap;
  (* The free list can never hold more slots than exist. *)
  let free = Array.make ncap 0 in
  Array.blit t.free 0 free 0 t.free_top;
  t.actions <- actions;
  t.iactions <- iactions;
  t.iargs <- iargs;
  t.gens <- gens;
  t.free <- free

let next_slot t =
  if t.free_top > 0 then begin
    let top = t.free_top - 1 in
    t.free_top <- top;
    t.free.(top)
  end
  else begin
    let s = t.slots_used in
    if s = max_slots then
      failwith "Sim.schedule: event slot table exhausted (2^21 pending)";
    if s = Array.length t.gens then grow_slots t;
    t.slots_used <- s + 1;
    s
  end

let alloc_slot t f =
  let slot = next_slot t in
  t.actions.(slot) <- f;
  (t.gens.(slot) lsl slot_bits) lor slot

let alloc_slot_i t f arg =
  let slot = next_slot t in
  t.iactions.(slot) <- f;
  t.iargs.(slot) <- arg;
  (t.gens.(slot) lsl slot_bits) lor slot

(* Retire a slot: invalidate outstanding handles (and any still-queued
   calendar entry) by bumping the generation, drop the action so the
   closure is not retained, recycle the slot. Generations only grow, so
   with 21 slot bits a 63-bit handle has 42 generation bits — no
   wraparound in any feasible run. *)
let release_slot t slot =
  t.gens.(slot) <- t.gens.(slot) + 1;
  (* Clear only the side this occupancy used: the other one was already
     nulled when its own occupancy was released, and each pointer store
     here costs a GC write barrier. *)
  if t.iargs.(slot) = no_iarg then t.actions.(slot) <- null_action
  else begin
    t.iactions.(slot) <- null_iaction;
    t.iargs.(slot) <- no_iarg
  end;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* --- filing ------------------------------------------------------------- *)

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (Stdlib.max 16 (cap * 2)) 0 in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
  done;
  t.lane <- lane;
  t.lane_head <- 0

let lane_push t h =
  if t.lane_len = Array.length t.lane then grow_lane t;
  let lane = t.lane in
  lane.((t.lane_head + t.lane_len) land (Array.length lane - 1)) <- h;
  t.lane_len <- t.lane_len + 1;
  if t.counting then Obs.incr t.obs Obs.Events_scheduled

let lane_pop t =
  let lane = t.lane in
  let h = lane.(t.lane_head) in
  t.lane_head <- (t.lane_head + 1) land (Array.length lane - 1);
  t.lane_len <- t.lane_len - 1;
  h

(* File [h] on the heap at time [cell.(0)] under the reserved [seq]. *)
let heap_push t ~seq cell h =
  Event_heap.push_seq t.calendar ~seq cell h;
  if t.counting then begin
    Obs.incr t.obs Obs.Events_scheduled;
    Obs.incr t.obs Obs.Heap_push;
    Obs.gauge_max t.obs Obs.Heap_max_depth (Event_heap.size t.calendar)
  end

(* File [h] at the time in [t.at]: the lane when that is now, the heap
   under a fresh seq otherwise. *)
let file t h =
  if t.at.(0) = t.clock.(0) then lane_push t h
  else heap_push t ~seq:(Event_heap.reserve_seq t.calendar) t.at h;
  h

let schedule t ~at f =
  let now = t.clock.(0) in
  if at < now then
    invalid_arg (Printf.sprintf "Sim.schedule: at=%g is before now=%g" at now);
  t.at.(0) <- at;
  file t (alloc_slot t f)

(* Writes [now + delay] straight into the filing cell: handing [at] on
   to [schedule] would box it. *)
let schedule_after t ~delay f =
  t.at.(0) <- t.clock.(0) +. (if delay < 0.0 then 0.0 else delay);
  file t (alloc_slot t f)

(* Int-payload scheduling: same bookkeeping (and the same observability
   counters) as [schedule], but the action is a shared [int -> unit]
   closure plus an int argument stored in the slot — per-packet callers
   avoid allocating a capturing closure per event. *)
let schedule_i t ~at f arg =
  if arg = no_iarg then invalid_arg "Sim.schedule_i: reserved argument";
  let now = t.clock.(0) in
  if at < now then
    invalid_arg (Printf.sprintf "Sim.schedule_i: at=%g is before now=%g" at now);
  t.at.(0) <- at;
  file t (alloc_slot_i t f arg)

let schedule_after_i t ~delay f arg =
  if arg = no_iarg then invalid_arg "Sim.schedule_i: reserved argument";
  t.at.(0) <- t.clock.(0) +. (if delay < 0.0 then 0.0 else delay);
  file t (alloc_slot_i t f arg)

let every t ~period ~until f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  (* Accumulating [at +. period] (rather than [t0 +. k *. period]) is
     deterministic and keeps each tick strictly after the previous one
     even when [period] is not exactly representable. *)
  let rec go at =
    if at <= until then
      ignore
        (schedule t ~at (fun () ->
             f ();
             go (at +. period)))
  in
  go (t.clock.(0) +. period)

let cancel t h =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if slot < t.slots_used && t.gens.(slot) = h asr slot_bits then
      release_slot t slot
  end

let is_pending t h =
  h >= 0
  &&
  let slot = h land slot_mask in
  slot < t.slots_used && t.gens.(slot) = h asr slot_bits

(* --- re-armable timers --------------------------------------------------- *)

(* A timer keeps at most one pending calendar entry, filed no later than
   its deadline. Arming reserves the deadline's heap seq on the spot,
   which is exactly the seq [cancel old; schedule_after ~delay f] would
   have given the new entry. If the pending entry is not later than the
   new deadline it stays: when it fires early it re-files itself at the
   deadline under the reserved seq, so the action runs at the same
   (time, seq) as the cancel-and-reschedule it replaces. An entry filed
   at the deadline carries the deadline's seq, which is how [fire] tells
   a deadline from an early fire. *)
type timer = {
  sim : t;
  cells : float array;  (* [| deadline; time of the pending entry |] *)
  mutable due_seq : int;  (* the deadline's reserved seq; -1 when disarmed *)
  mutable entry : handle;  (* the pending entry, or [none] *)
  mutable entry_seq : int;  (* the seq [entry] was filed under *)
  mutable action : unit -> unit;
  mutable fire : unit -> unit;  (* the entry's action, allocated once *)
}

(* File the pending entry at the deadline, under the deadline's seq. *)
let file_deadline tm ~lane =
  let t = tm.sim in
  tm.cells.(1) <- tm.cells.(0);
  tm.entry_seq <- tm.due_seq;
  tm.entry <- alloc_slot t tm.fire;
  if lane then lane_push t tm.entry
  else heap_push t ~seq:tm.due_seq tm.cells tm.entry

let fire tm =
  tm.entry <- none;
  if tm.due_seq >= 0 then
    if tm.entry_seq = tm.due_seq then begin
      tm.due_seq <- -1;
      tm.action ()
    end
    else
      (* Early: the deadline moved later since this entry was filed.
         It goes on the heap even when due now: the reserved seq
         predates every lane entry. *)
      file_deadline tm ~lane:false

let timer t =
  let tm =
    {
      sim = t;
      cells = [| 0.0; 0.0 |];
      due_seq = -1;
      entry = none;
      entry_seq = -1;
      action = null_action;
      fire = null_action;
    }
  in
  tm.fire <- (fun () -> fire tm);
  tm

let arm tm ~delay f =
  let t = tm.sim and c = tm.cells in
  let now = t.clock.(0) in
  c.(0) <- now +. (if delay < 0.0 then 0.0 else delay);
  if tm.action != f then tm.action <- f;
  tm.due_seq <- Event_heap.reserve_seq t.calendar;
  (* Due now, it goes behind everything already due now: the lane. A
     pending entry no later than the deadline stays and re-files
     itself when it fires. *)
  let lane = c.(0) = now in
  if lane || tm.entry = none || c.(1) > c.(0) then begin
    cancel t tm.entry;
    file_deadline tm ~lane
  end

(* Lazy: a pending entry stays and fires as a no-op, or is reused by
   the next [arm]. *)
let disarm tm = tm.due_seq <- -1

let armed tm = tm.due_seq >= 0

(* --- running ------------------------------------------------------------- *)

let check_heap_pop t prev =
  let time = t.clock.(0) in
  Check.require t.check Check.Engine (time >= prev) (fun () ->
      Printf.sprintf "clock went backwards: popped t=%g < now=%g" time prev);
  (* Heap order: nothing still queued may precede the event we just
     popped. *)
  if not (Event_heap.is_empty t.calendar) then begin
    let next = Event_heap.top_time t.calendar in
    Check.require t.check Check.Engine (next >= time) (fun () ->
        Printf.sprintf "event heap disorder: popped t=%g but head is t=%g" time
          next)
  end

(* Lane order: a heap entry due now precedes every lane entry. *)
let check_lane t =
  if not (Event_heap.is_empty t.calendar) then begin
    let due = Event_heap.top_time t.calendar and now = t.clock.(0) in
    Check.require t.check Check.Engine (due > now) (fun () ->
        Printf.sprintf
          "lane order: a lane entry ran at t=%g before a heap entry due at t=%g"
          now due)
  end

let dispatch t h =
  let slot = h land slot_mask in
  if t.gens.(slot) = h asr slot_bits then begin
    if t.counting then Obs.incr t.obs Obs.Events_executed;
    let arg = t.iargs.(slot) in
    if arg = no_iarg then begin
      let action = t.actions.(slot) in
      (* Retire before running: the action may itself schedule (timer
         re-arm immediately reuses this slot) and a handle to a fired
         event must already read as stale. *)
      release_slot t slot;
      action ()
    end
    else begin
      let action = t.iactions.(slot) in
      release_slot t slot;
      action arg
    end
  end
  else if t.counting then Obs.incr t.obs Obs.Events_skipped

(* Run the next entry due at or before [clock.(2)]; [false] if none.
   With the lane non-empty only heap entries due now may go first, and
   none at all when the horizon lies before now. *)
let next t =
  let c = t.clock in
  let lane = t.lane_len > 0 in
  c.(1) <- (if lane && c.(0) < c.(2) then c.(0) else c.(2));
  let prev = c.(0) in
  let h = Event_heap.pop_due t.calendar c in
  if h >= 0 then begin
    if t.checking then check_heap_pop t prev;
    if t.counting then Obs.incr t.obs Obs.Heap_pop;
    dispatch t h;
    true
  end
  else if lane && c.(0) <= c.(2) then begin
    if t.checking then check_lane t;
    dispatch t (lane_pop t);
    true
  end
  else false

let step t =
  t.clock.(2) <- Float.infinity;
  next t

let run ?until t =
  let c = t.clock in
  (match until with
  | Some s -> c.(2) <- s
  | None -> c.(2) <- Float.infinity);
  while next t do
    ()
  done;
  match until with
  | Some s when s > c.(0) -> c.(0) <- s
  | Some _ | None -> ()

let pending_events t = Event_heap.size t.calendar + t.lane_len

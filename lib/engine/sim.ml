module Check = Taq_check.Check
module Obs = Taq_obs.Obs

(* A calendar entry is a slot index: the entry's action lives in a
   pooled slot table, so scheduling allocates nothing. A one-shot
   entry's slot is freed when the entry leaves the calendar, never
   earlier, so an entry always finds its own action in its slot. The
   one way to take back an entry is a timer's [arm], which writes the
   [cancelled] sentinel into the slot of the entry it supersedes: that
   entry still pops in its turn, moves the clock, runs nothing and is
   counted as skipped.

   An action that fires again and again (a delay line's hop, a link's
   transmission completion) owns its slot instead, for as long as it
   may have entries pending. Its entries carry [owned slot], a payload
   below -1, and running one neither frees the slot nor clears its
   action: filing and running an owned entry store no pointer.

   The calendar is a lane and three heaps that together keep the
   (time, scheduling order) order exactly:

   - the lane, a FIFO ring of entries scheduled for the current
     instant. Every zero-delay event lands here (a link delivery with
     [prop_delay = 0], a timer armed at delay 0) and never touches a
     heap;
   - for everything later, three [Event_heap]s by role, ordered by
     (time, seq) under seqs from one counter: the deadlines timers
     file, most of which are never reached; transmissions, whose
     owners keep at most one entry pending; and everything else. The
     next entry is the earliest of the three tops. Seqs never repeat,
     so that merge pops exactly the sequence one heap would.

   A heap entry due at [now] was filed while the clock was still
   earlier (had it been filed at [now] it would be in the lane), so it
   precedes every lane entry. Hence the rule: run heap entries due at
   [now], then drain the lane, then advance the clock. DESIGN.md
   ("Event calendar") has the full argument and the timer's. *)

let null_action () = ()

(* The action of an entry a timer has superseded. Never run: [dispatch]
   compares against it. Its body differs from [null_action]'s so the
   two can never be one closure. *)
let cancelled () = assert false

type t = {
  clock : float array;
      (* [| now; limit; stop |]: the clock, the latest time
         [Event_heap.pop_due] may pop, and [run]'s horizon. Float fields
         in this mixed record would box on every store, and a float
         passed to or returned from a call the compiler does not inline
         is boxed too, so times travel in this flat array. *)
  at : float array;  (* one cell: the time of the entry being filed *)
  (* The heaps by role. Each holds fewer entries than one heap would,
     so the frequent pops (hops, transmissions) sift past fewer
     entries: on a long-flow run most entries are RTO deadlines. *)
  timers : Event_heap.t;  (* every heap entry [arm] files *)
  transmissions : Event_heap.t;  (* entries filed by [transmit] *)
  hops : Event_heap.t;  (* everything else *)
  mutable next_seq : int;  (* the heaps' one tie-break counter *)
  mutable lane : int array;  (* ring of payloads due now; power-of-two size *)
  mutable lane_head : int;
  mutable lane_len : int;
  (* Event-slot table: each slot's action, plus a stack of free
     slots. *)
  mutable actions : (unit -> unit) array;
  mutable free : int array;
  mutable free_top : int;
  check : Check.t;
  obs : Obs.t;
  (* Both fixed for the simulator's life, so read once here rather
     than through a call on every event. *)
  checking : bool;  (* [Check.on check Engine] *)
  counting : bool;  (* [Obs.enabled obs] *)
  (* The [sim.*] counter cells of [obs], looked up once. *)
  scheduled : int ref;
  executed : int ref;
  skipped : int ref;
  pushes : int ref;
  pops : int ref;
  max_depth : int ref;  (* a gauge *)
}

let create ?check ?obs () =
  let check = Option.value check ~default:Check.off in
  let obs = Option.value obs ~default:Obs.off in
  {
    clock = [| 0.0; 0.0; 0.0 |];
    at = [| 0.0 |];
    timers = Event_heap.create ();
    transmissions = Event_heap.create ();
    hops = Event_heap.create ();
    next_seq = 0;
    lane = [||];
    lane_head = 0;
    lane_len = 0;
    actions = [||];
    free = [||];
    free_top = 0;
    check;
    obs;
    checking = Check.on check Check.Engine;
    counting = Obs.enabled obs;
    scheduled = Obs.labeled_ref obs "sim.events_scheduled";
    executed = Obs.labeled_ref obs "sim.events_executed";
    skipped = Obs.labeled_ref obs "sim.events_skipped";
    pushes = Obs.labeled_ref obs "sim.heap_push";
    pops = Obs.labeled_ref obs "sim.heap_pop";
    max_depth = Obs.labeled_gauge_ref obs "sim.heap_max_depth";
  }

let check t = t.check

let obs t = t.obs

(* Out of line on purpose. A call returns the clock boxed once, and
   every use in the caller shares that box. Inlined, the caller holds
   the clock unboxed and boxes it again at each use that leaves the
   function: the metrics listener that passes one reading to both
   [Slicer.record] and [Flow_evolution.note_activity] boxes it twice.
   That raised bench/perf's alloc_words_per_pkt 13.4% on dt-long
   (18.98 -> 21.52) and 13.9% on dt-soak; test_tcp's "minor words per
   offered packet" bounds it. *)
let[@inline never] now t = t.clock.(0)

let clock t = t.clock

(* Called with every slot in use: double the table and stack the new
   slots as free, lowest on top. *)
let grow_slots t =
  let cap = Array.length t.free in
  let ncap = Stdlib.max 64 (cap * 2) in
  let actions = Array.make ncap null_action in
  Array.blit t.actions 0 actions 0 cap;
  t.actions <- actions;
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.free_top <- ncap - cap

let alloc_slot t f =
  if t.free_top = 0 then grow_slots t;
  let top = t.free_top - 1 in
  t.free_top <- top;
  let slot = t.free.(top) in
  t.actions.(slot) <- f;
  slot

let free_slot t slot =
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* The payload of an owned slot's entries, and back: an involution
   from slots (>= 0) onto the payloads below -1. *)
let[@inline] owned slot = -2 - slot

let own t f = alloc_slot t f

let give_back t slot =
  t.actions.(slot) <- null_action;
  free_slot t slot

(* --- filing ------------------------------------------------------------- *)

let nan_time fn what = invalid_arg (Printf.sprintf "Sim.%s: %s is nan" fn what)

(* What a delay that fails [delay >= 0.0] becomes: 0 when negative, and
   [Invalid_argument] when NaN. A valid delay costs one comparison. *)
let clamp fn delay = if delay < 0.0 then 0.0 else nan_time fn "delay"

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (Stdlib.max 16 (cap * 2)) 0 in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
  done;
  t.lane <- lane;
  t.lane_head <- 0

let lane_push t payload =
  if t.lane_len = Array.length t.lane then grow_lane t;
  let lane = t.lane in
  lane.((t.lane_head + t.lane_len) land (Array.length lane - 1)) <- payload;
  t.lane_len <- t.lane_len + 1;
  if t.counting then incr t.scheduled

let lane_pop t =
  let lane = t.lane in
  let payload = lane.(t.lane_head) in
  t.lane_head <- (t.lane_head + 1) land (Array.length lane - 1);
  t.lane_len <- t.lane_len - 1;
  payload

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let heap_entries t =
  Event_heap.size t.timers
  + Event_heap.size t.transmissions
  + Event_heap.size t.hops

(* File [payload] on [heap] at time [cell.(0)] under the reserved
   [seq]. The depth gauge sums the heaps: the entries one heap held. *)
let heap_push t heap ~seq cell payload =
  Event_heap.push heap ~seq cell payload;
  if t.counting then begin
    incr t.scheduled;
    incr t.pushes;
    let depth = heap_entries t in
    if depth > !(t.max_depth) then t.max_depth := depth
  end

(* File [payload] at the time in [t.at]: the lane when that is now,
   [heap] under a fresh seq otherwise. *)
let file t heap payload =
  if t.at.(0) = t.clock.(0) then lane_push t payload
  else heap_push t heap ~seq:(fresh_seq t) t.at payload

let schedule t ~at f =
  let now = t.clock.(0) in
  if not (at >= now) then
    if Float.is_nan at then nan_time "schedule" "at"
    else
      invalid_arg (Printf.sprintf "Sim.schedule: at=%g is before now=%g" at now);
  t.at.(0) <- at;
  file t t.hops (alloc_slot t f)

(* Writes [now + delay] straight into the filing cell: handing [at] on
   to [schedule] would box it. *)
let schedule_after t ~delay f =
  let delay = if delay >= 0.0 then delay else clamp "schedule_after" delay in
  t.at.(0) <- t.clock.(0) +. delay;
  file t t.hops (alloc_slot t f)

let hop t slot ~delay =
  let delay = if delay >= 0.0 then delay else clamp "hop" delay in
  t.at.(0) <- t.clock.(0) +. delay;
  file t t.hops (owned slot)

let transmit t slot ~delay =
  let delay = if delay >= 0.0 then delay else clamp "transmit" delay in
  t.at.(0) <- t.clock.(0) +. delay;
  file t t.transmissions (owned slot)

let every t ~period ~until f =
  if not (period > 0.0) then invalid_arg "Sim.every: period must be positive";
  if Float.is_nan until then nan_time "every" "until";
  (* Accumulating [at +. period] (rather than [t0 +. k *. period]) is
     deterministic and keeps each tick strictly after the previous one
     even when [period] is not exactly representable. *)
  let rec go at =
    if at <= until then
      schedule t ~at (fun () ->
          f ();
          go (at +. period))
  in
  go (t.clock.(0) +. period)

(* --- re-armable timers --------------------------------------------------- *)

(* A timer keeps at most one pending calendar entry, filed no later than
   its deadline, in the lane or on the timers' heap. Arming reserves
   the deadline's seq on the spot, which is exactly the seq a fresh
   [schedule_after ~delay f] would get.
   If the pending entry is not later than the new deadline it stays:
   when it fires early it re-files itself at the deadline under the
   reserved seq, so the action runs at the same (time, seq) as that
   fresh entry. Otherwise the pending entry is superseded. An entry
   filed at the deadline carries the deadline's seq, which is how [fire]
   tells a deadline from an early fire. *)
type timer = {
  sim : t;
  cells : float array;  (* [| deadline; time of the pending entry |] *)
  mutable due_seq : int;  (* the deadline's reserved seq; -1 when disarmed *)
  mutable entry : int;  (* the pending entry's slot; -1 when none *)
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
  else heap_push t t.timers ~seq:tm.due_seq tm.cells tm.entry

let fire tm =
  tm.entry <- -1;
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
      entry = -1;
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
  let delay = if delay >= 0.0 then delay else clamp "arm" delay in
  c.(0) <- now +. delay;
  if tm.action != f then tm.action <- f;
  tm.due_seq <- fresh_seq t;
  (* Due now, it goes behind everything already due now: the lane. A
     pending entry no later than the deadline stays and re-files
     itself when it fires. *)
  let lane = c.(0) = now in
  if lane || tm.entry < 0 || c.(1) > c.(0) then begin
    if tm.entry >= 0 then t.actions.(tm.entry) <- cancelled;
    file_deadline tm ~lane
  end

(* Lazy: a pending entry stays and fires as a no-op, or is reused by
   the next [arm]. *)
let disarm tm = tm.due_seq <- -1

let armed tm = tm.due_seq >= 0

(* --- running ------------------------------------------------------------- *)

(* The heap whose top is the calendar's next heap entry. *)
let[@inline] earliest t =
  Event_heap.earliest t.hops t.transmissions t.timers

let check_heap_pop t prev =
  let time = t.clock.(0) in
  Check.require t.check Check.Engine (time >= prev) (fun () ->
      Printf.sprintf "clock went backwards: popped t=%g < now=%g" time prev);
  (* Heap order: nothing still queued may precede the event we just
     popped. *)
  let heap = earliest t in
  if not (Event_heap.is_empty heap) then begin
    let next = Event_heap.top_time heap in
    Check.require t.check Check.Engine (next >= time) (fun () ->
        Printf.sprintf "event heap disorder: popped t=%g but head is t=%g" time
          next)
  end

(* Lane order: a heap entry due now precedes every lane entry. *)
let check_lane t =
  let heap = earliest t in
  if not (Event_heap.is_empty heap) then begin
    let due = Event_heap.top_time heap and now = t.clock.(0) in
    Check.require t.check Check.Engine (due > now) (fun () ->
        Printf.sprintf
          "lane order: a lane entry ran at t=%g before a heap entry due at t=%g"
          now due)
  end

(* Free a one-shot slot before running its action: the action may
   itself schedule and take the slot straight back (a timer re-arm
   does). An owned slot stays as it is. *)
let dispatch t payload =
  if payload >= 0 then begin
    let action = t.actions.(payload) in
    t.actions.(payload) <- null_action;
    free_slot t payload;
    if action != cancelled then begin
      if t.counting then incr t.executed;
      action ()
    end
    else if t.counting then incr t.skipped
  end
  else begin
    if t.counting then incr t.executed;
    t.actions.(owned payload) ()
  end

(* Run the next entry due at or before [clock.(2)]; [false] if none.
   With the lane non-empty only heap entries due now may go first, and
   none at all when the horizon lies before now. *)
let next t =
  let c = t.clock in
  let lane = t.lane_len > 0 in
  c.(1) <- (if lane && c.(0) < c.(2) then c.(0) else c.(2));
  let prev = c.(0) in
  let payload = Event_heap.pop_due (earliest t) c in
  if payload <> -1 then begin
    if t.checking then check_heap_pop t prev;
    if t.counting then incr t.pops;
    dispatch t payload;
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
  | Some s when Float.is_nan s -> nan_time "run" "until"
  | Some s -> c.(2) <- s
  | None -> c.(2) <- Float.infinity);
  while next t do
    ()
  done;
  match until with
  | Some s when s > c.(0) -> c.(0) <- s
  | Some _ | None -> ()

let pending_events t = heap_entries t + t.lane_len

let slots_in_use t = Array.length t.free - t.free_top

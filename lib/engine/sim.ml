module Check = Taq_check.Check
module Obs = Taq_obs.Obs

(* An event handle packs a slot index and that slot's generation at
   scheduling time into one immediate int. Scheduling allocates nothing:
   the action goes into a pooled slot table, the handle goes into the
   flat calendar heap as its int payload. Firing or cancelling a slot
   bumps its generation, which simultaneously invalidates every
   outstanding handle to it (stale [cancel]/[is_pending] are O(1)
   no-ops, never a crash) and lazily invalidates the heap entry: a
   popped payload whose generation no longer matches its slot is a
   cancelled event and is counted as skipped, exactly like the old
   tombstone records. *)

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
      (* one element. A [mutable clock : float] field in this mixed
         record would box on every store — the clock advances once per
         event, so it lives in a flat float array instead. *)
  calendar : Event_heap.t;
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
}

let create ?check ?obs () =
  let check = Option.value check ~default:Check.off in
  let obs = Option.value obs ~default:Obs.off in
  {
    clock = [| 0.0 |];
    calendar = Event_heap.create ();
    actions = [||];
    iactions = [||];
    iargs = [||];
    gens = [||];
    free = [||];
    free_top = 0;
    slots_used = 0;
    check;
    obs;
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

let schedule t ~at f =
  let now = t.clock.(0) in
  if at < now then
    invalid_arg (Printf.sprintf "Sim.schedule: at=%g is before now=%g" at now);
  let h = alloc_slot t f in
  Event_heap.push t.calendar ~time:at h;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs Obs.Events_scheduled;
    Obs.incr t.obs Obs.Heap_push;
    Obs.gauge_max t.obs Obs.Heap_max_depth (Event_heap.size t.calendar)
  end;
  h

let schedule_after t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule t ~at:(t.clock.(0) +. delay) f

(* Int-payload scheduling: same bookkeeping (and the same observability
   counters) as [schedule], but the action is a shared [int -> unit]
   closure plus an int argument stored in the slot — per-packet callers
   avoid allocating a capturing closure per event. *)
let schedule_i t ~at f arg =
  if arg = no_iarg then invalid_arg "Sim.schedule_i: reserved argument";
  let now = t.clock.(0) in
  if at < now then
    invalid_arg (Printf.sprintf "Sim.schedule_i: at=%g is before now=%g" at now);
  let h = alloc_slot_i t f arg in
  Event_heap.push t.calendar ~time:at h;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs Obs.Events_scheduled;
    Obs.incr t.obs Obs.Heap_push;
    Obs.gauge_max t.obs Obs.Heap_max_depth (Event_heap.size t.calendar)
  end;
  h

let schedule_after_i t ~delay f arg =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_i t ~at:(t.clock.(0) +. delay) f arg

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

let step t =
  if Event_heap.is_empty t.calendar then false
  else begin
    let time = Event_heap.top_time t.calendar in
    let h = Event_heap.pop_payload t.calendar in
    if Check.on t.check Check.Engine then begin
      Check.require t.check Check.Engine
        (time >= t.clock.(0))
        (fun () ->
          Printf.sprintf "clock went backwards: popped t=%g < now=%g" time
            t.clock.(0));
      (* Heap order: nothing still queued may precede the event we
         just popped. *)
      if not (Event_heap.is_empty t.calendar) then begin
        let next = Event_heap.top_time t.calendar in
        Check.require t.check Check.Engine (next >= time) (fun () ->
            Printf.sprintf "event heap disorder: popped t=%g but head is t=%g"
              time next)
      end
    end;
    t.clock.(0) <- time;
    let slot = h land slot_mask in
    let live = t.gens.(slot) = h asr slot_bits in
    if Obs.enabled t.obs then begin
      Obs.incr t.obs Obs.Heap_pop;
      Obs.incr t.obs (if live then Obs.Events_executed else Obs.Events_skipped)
    end;
    if live then begin
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
    end;
    true
  end

let run ?until t =
  let stop = match until with Some s -> s | None -> Float.infinity in
  let continue = ref true in
  while !continue do
    if Event_heap.is_empty t.calendar then continue := false
    else if Event_heap.top_time t.calendar > stop then continue := false
    else ignore (step t)
  done;
  match until with
  | Some s when s > t.clock.(0) -> t.clock.(0) <- s
  | Some _ | None -> ()

let pending_events t = Event_heap.size t.calendar

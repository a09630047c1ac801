(* Tests for the discrete-event engine: heap ordering, FIFO tie-break,
   scheduling, cancellation, run-until semantics — plus the
   differential battery that locks the flat struct-of-arrays heap and
   the pooled slot-table scheduler to their boxed reference
   semantics. *)

open Taq_engine

(* --- Event_heap ------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  List.iteri
    (fun i t -> Event_heap.push h ~time:t i)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | None -> ()
    | Some (t, _) ->
        order := t :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:1.0 i
  done;
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int))
    "insertion order preserved on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_heap_empty () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Event_heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Event_heap.peek_time h = None);
  (match Event_heap.top_time h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "top_time on empty should raise");
  let clock = [| 0.0; Float.infinity |] in
  Alcotest.(check int) "pop_due none" (-1) (Event_heap.pop_due h clock);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 clock.(0)

let test_heap_interleaved () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:2.0 1;
  Event_heap.push h ~time:1.0 2;
  (match Event_heap.pop h with
  | Some (_, 2) -> ()
  | _ -> Alcotest.fail "expected payload 2");
  Event_heap.push h ~time:0.5 3;
  (match Event_heap.pop h with
  | Some (_, 3) -> ()
  | _ -> Alcotest.fail "expected payload 3");
  Alcotest.(check int) "one left" 1 (Event_heap.size h)

let test_heap_large_random () =
  let prng = Taq_util.Prng.create ~seed:77 in
  let h = Event_heap.create () in
  let n = 10_000 in
  for i = 1 to n do
    Event_heap.push h ~time:(Taq_util.Prng.float prng 1000.0) i
  done;
  let last = ref neg_infinity in
  let rec drain count =
    match Event_heap.pop h with
    | None -> count
    | Some (t, _) ->
        if t < !last then Alcotest.failf "heap disorder: %g after %g" t !last;
        last := t;
        drain (count + 1)
  in
  Alcotest.(check int) "all drained" n (drain 0)

let test_heap_clear_keeps_capacity () =
  let h = Event_heap.create () in
  for i = 1 to 100 do
    Event_heap.push h ~time:(float_of_int i) i
  done;
  let cap = Event_heap.capacity h in
  Alcotest.(check bool) "grew" true (cap >= 100);
  Event_heap.clear h;
  Alcotest.(check int) "empty after clear" 0 (Event_heap.size h);
  Alcotest.(check int) "max_size reset" 0 (Event_heap.max_size h);
  Alcotest.(check int) "capacity kept (warm heap)" cap (Event_heap.capacity h);
  (* The cleared heap is immediately reusable without reallocating. *)
  for i = 1 to 50 do
    Event_heap.push h ~time:(float_of_int (51 - i)) i
  done;
  Alcotest.(check int) "capacity unchanged on reuse" cap
    (Event_heap.capacity h);
  Alcotest.(check int) "max_size tracks anew" 50 (Event_heap.max_size h);
  match Event_heap.pop h with
  | Some (1.0, 50) -> ()
  | _ -> Alcotest.fail "reused heap must order correctly"

(* --- Sim -------------------------------------------------------------- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log));
  ignore (Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~at:3.0 (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let observed = ref nan in
  ignore (Sim.schedule sim ~at:1.5 (fun () -> observed := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "clock at event time" 1.5 !observed

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let observed = ref nan in
  ignore
    (Sim.schedule sim ~at:1.0 (fun () ->
         ignore
           (Sim.schedule_after sim ~delay:0.5 (fun () -> observed := Sim.now sim))));
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "relative delay" 1.5 !observed

let test_sim_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:5.0 (fun () -> ()));
  Sim.run sim;
  match Sim.schedule sim ~at:1.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past should raise"

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Sim.is_pending sim h);
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check bool) "not pending" false (Sim.is_pending sim h)

let test_sim_cancel_from_event () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:2.0 (fun () -> fired := true) in
  ignore (Sim.schedule sim ~at:1.0 (fun () -> Sim.cancel sim h));
  Sim.run sim;
  Alcotest.(check bool) "cancelled by earlier event" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~at:(float_of_int i) (fun () -> incr count))
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "only events <= until" 5 !count;
  Alcotest.(check (float 1e-12)) "clock parked at until" 5.5 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest run afterwards" 10 !count

let test_sim_until_boundary_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> fired := true));
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "event exactly at until runs" true !fired

let test_sim_step () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log));
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check (list int)) "only first" [ 1 ] !log;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

let test_sim_cascading_events () =
  (* An event chain that reschedules itself a fixed number of times. *)
  let sim = Sim.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 100 then ignore (Sim.schedule_after sim ~delay:0.1 hop)
  in
  ignore (Sim.schedule sim ~at:0.0 hop);
  Sim.run sim;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check (float 1e-6)) "time accumulated" 9.9 (Sim.now sim)

let test_sim_same_time_event_scheduled_during_event () =
  (* An event scheduling another event at the same timestamp must run it
     in the same run (after the current one). *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~at:1.0 (fun () ->
         log := "first" :: !log;
         ignore (Sim.schedule sim ~at:1.0 (fun () -> log := "second" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "both ran" [ "first"; "second" ] (List.rev !log)

(* Allocation-free hot path: after warm-up, an event that reschedules
   itself with [schedule_after] (one shared closure, constant delay)
   allocates nothing across scheduling, filing, popping and firing —
   and neither does re-arming a timer with a later deadline from every
   hop, whose pending entry fires early and re-files itself. *)
let test_sim_allocation_free () =
  let sim = Sim.create () in
  let tm = Sim.timer sim in
  let remaining = ref 0 in
  let rec hop () =
    decr remaining;
    Sim.arm tm ~delay:1.0 ignore;
    if !remaining > 0 then ignore (Sim.schedule_after sim ~delay:0.25 hop)
  in
  let cycle n =
    remaining := n;
    ignore (Sim.schedule_after sim ~delay:0.25 hop);
    Sim.run sim
  in
  cycle 1_000;
  let n = 100_000 in
  let before = Gc.minor_words () in
  cycle n;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words per event" 0.0 (words /. float_of_int n)

(* --- pooled slot table: stale-handle semantics ------------------------- *)

let test_sim_stale_handle_inert () =
  (* Cancel frees the slot; the next schedule recycles it under a new
     generation. The stale handle must then be inert: is_pending false,
     cancel a no-op that does NOT kill the slot's new occupant, and the
     old action must never fire. *)
  let sim = Sim.create () in
  let fired_old = ref false and fired_new = ref false in
  let h_old = Sim.schedule sim ~at:1.0 (fun () -> fired_old := true) in
  Sim.cancel sim h_old;
  let h_new = Sim.schedule sim ~at:2.0 (fun () -> fired_new := true) in
  Alcotest.(check bool) "stale not pending" false (Sim.is_pending sim h_old);
  Alcotest.(check bool) "new occupant pending" true (Sim.is_pending sim h_new);
  Sim.cancel sim h_old;
  (* double cancel through the stale handle *)
  Alcotest.(check bool)
    "stale cancel spares new occupant" true
    (Sim.is_pending sim h_new);
  Sim.run sim;
  Alcotest.(check bool) "old action never fires" false !fired_old;
  Alcotest.(check bool) "new occupant fires" true !fired_new;
  Alcotest.(check bool) "fired handle goes stale" false (Sim.is_pending sim h_new);
  Alcotest.(check bool) "none never pending" false (Sim.is_pending sim Sim.none);
  Sim.cancel sim Sim.none

let test_sim_handle_stale_after_fire () =
  (* A handle whose event has fired is stale even once its slot has
     been recycled by later scheduling. *)
  let sim = Sim.create () in
  let h1 = Sim.schedule sim ~at:1.0 (fun () -> ()) in
  Sim.run sim;
  let recycled_fired = ref false in
  let h2 = Sim.schedule sim ~at:2.0 (fun () -> recycled_fired := true) in
  Alcotest.(check bool) "fired handle stale" false (Sim.is_pending sim h1);
  Sim.cancel sim h1;
  Alcotest.(check bool)
    "cancel via fired handle spares recycled slot" true
    (Sim.is_pending sim h2);
  Sim.run sim;
  Alcotest.(check bool) "recycled event ran" true !recycled_fired

(* --- qcheck properties ------------------------------------------------- *)

let prop_cancelled_events_never_fire =
  (* Random schedules with random cancellations: a cancelled event must
     never run, everything else must run exactly once, in time order. *)
  QCheck.Test.make ~name:"cancelled events never fire" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (pair (float_range 0.0 100.0) bool))
    (fun plan ->
      let sim = Sim.create () in
      let fired = Array.make (List.length plan) 0 in
      let handles =
        List.mapi
          (fun i (at, _) ->
            Sim.schedule sim ~at (fun () -> fired.(i) <- fired.(i) + 1))
          plan
      in
      List.iteri
        (fun i (_, cancel) -> if cancel then Sim.cancel sim (List.nth handles i))
        plan;
      Sim.run sim;
      List.for_all2
        (fun (_, cancelled) count -> count = (if cancelled then 0 else 1))
        plan (Array.to_list fired))

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap always drains sorted" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0.0 1e6))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> Event_heap.push h ~time:t i) times;
      let rec drain last ok =
        match Event_heap.pop h with
        | None -> ok
        | Some (t, _) -> drain t (ok && t >= last)
      in
      drain neg_infinity true)

(* Differential battery: the flat struct-of-arrays heap run lock-step
   against the retained boxed reference under random interleavings of
   push, pop, clear, seq reservations filed late ([reserve_seq] then
   [push_seq], oldest or newest outstanding reservation first) and
   due-bounded pops ([pop_due]). Times and limits are drawn from a
   small discrete grid so ties are frequent — the FIFO tie-break must
   match exactly — and after every operation the size/max_size
   trajectories must agree. The mix is push-heavy: pushes outweigh
   pops and [pop_due]s 10 to 4 and one op in 17 is a clear, so about
   three cases in five outgrow the initial capacity of 16 (the grow
   path) and ties sift through several levels. *)
let prop_heap_matches_reference =
  (* (kind, arg): 0 push at arg/2, 1 pop, 2 clear, 3 reserve a seq,
     4 file a reserved seq at arg/2, 5 pop_due with limit arg/2 *)
  let op_gen =
    QCheck.Gen.(
      pair
        (frequency
           [
             (10, return 0);
             (2, return 1);
             (1, return 2);
             (1, return 3);
             (1, return 4);
             (2, return 5);
           ])
        (int_range 0 7))
  in
  let pp = function
    | None -> "None"
    | Some (t, v) -> Printf.sprintf "(%g,%d)" t v
  in
  QCheck.Test.make ~name:"flat heap == boxed reference (differential)"
    ~count:500
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(list_size (int_range 0 300) op_gen))
    (fun ops ->
      let flat = Event_heap.create () in
      let boxed = Event_heap_ref.create () in
      let payload = ref 0 in
      let reserved = ref [] in
      let clock_flat = [| 0.0; 0.0 |] and clock_ref = [| 0.0; 0.0 |] in
      let agree where =
        if Event_heap.size flat <> Event_heap_ref.size boxed then
          QCheck.Test.fail_reportf "%s: size %d <> ref %d" where
            (Event_heap.size flat) (Event_heap_ref.size boxed);
        if Event_heap.max_size flat <> Event_heap_ref.max_size boxed then
          QCheck.Test.fail_reportf "%s: max_size %d <> ref %d" where
            (Event_heap.max_size flat)
            (Event_heap_ref.max_size boxed);
        if Event_heap.peek_time flat <> Event_heap_ref.peek_time boxed then
          QCheck.Test.fail_reportf "%s: peek_time disagrees" where
      in
      List.iter
        (fun (kind, arg) ->
          let time = float_of_int arg /. 2.0 in
          match kind with
          | 0 ->
              incr payload;
              Event_heap.push flat ~time !payload;
              Event_heap_ref.push boxed ~time !payload;
              agree "push"
          | 1 ->
              let a = Event_heap.pop flat and b = Event_heap_ref.pop boxed in
              if a <> b then
                QCheck.Test.fail_reportf "pop disagrees: flat=%s ref=%s"
                  (pp a) (pp b);
              agree "pop"
          | 2 ->
              Event_heap.clear flat;
              Event_heap_ref.clear boxed;
              agree "clear"
          | 3 ->
              let a = Event_heap.reserve_seq flat
              and b = Event_heap_ref.reserve_seq boxed in
              if a <> b then
                QCheck.Test.fail_reportf "reserve_seq: %d <> ref %d" a b;
              reserved := !reserved @ [ a ]
          | 4 -> (
              match !reserved with
              | [] -> ()
              | oldest :: rest ->
                  let seq, left =
                    if arg land 1 = 0 then (oldest, rest)
                    else
                      let r = List.rev !reserved in
                      (List.hd r, List.rev (List.tl r))
                  in
                  reserved := left;
                  incr payload;
                  Event_heap.push_seq flat ~seq [| time |] !payload;
                  Event_heap_ref.push_seq boxed ~seq [| time |] !payload;
                  agree "push_seq")
          | _ ->
              clock_flat.(1) <- time;
              clock_ref.(1) <- time;
              let a = Event_heap.pop_due flat clock_flat
              and b = Event_heap_ref.pop_due boxed clock_ref in
              let b = Option.value b ~default:(-1) in
              if a <> b || clock_flat.(0) <> clock_ref.(0) then
                QCheck.Test.fail_reportf
                  "pop_due to %g: flat=%d at %g, ref=%d at %g" time a
                  clock_flat.(0) b clock_ref.(0);
              agree "pop_due")
        ops;
      (* Drain both completely: total order including all remaining
         ties must coincide. *)
      let rec drain () =
        let a = Event_heap.pop flat and b = Event_heap_ref.pop boxed in
        if a <> b then QCheck.Test.fail_report "drain order disagrees";
        if a <> None then drain ()
      in
      drain ();
      true)

(* The batteries run [Sim] with its Engine invariants on, so a lane
   entry that overtakes a due heap entry raises even before the logs
   are compared. *)
let engine_check = Taq_check.Check.create ~groups:[ Taq_check.Check.Engine ] ()

(* The engine's semantics as a list model: one calendar sorted by
   (time, scheduling order), no lane, no timer primitive. A cancelled
   entry stays and is taken off in its turn, moving the clock but
   running nothing, as [Sim]'s does. The lane and timer batteries run
   one script against this model and against [Sim] and require the
   same log. *)
module Model = struct
  type t = {
    mutable now : float;
    mutable next_id : int;
    mutable pending : (float * int * (unit -> unit)) list;
    cancelled : (int, unit) Hashtbl.t;
  }

  let create () =
    { now = 0.0; next_id = 0; pending = []; cancelled = Hashtbl.create 16 }

  let schedule_after t ~delay f =
    let at = t.now +. Float.max delay 0.0 and id = t.next_id in
    t.next_id <- id + 1;
    (* Ids grow, so a new entry goes after every entry at its time. *)
    let rec insert = function
      | ((a, _, _) as e) :: rest when a <= at -> e :: insert rest
      | rest -> (at, id, f) :: rest
    in
    t.pending <- insert t.pending;
    id

  let is_pending t id =
    List.exists (fun (_, i, _) -> i = id) t.pending
    && not (Hashtbl.mem t.cancelled id)

  let cancel t id = if is_pending t id then Hashtbl.replace t.cancelled id ()

  (* Take the next entry off if it is due by [stop]. *)
  let next t stop =
    match t.pending with
    | (at, id, f) :: rest when at <= stop ->
        t.pending <- rest;
        t.now <- at;
        if not (Hashtbl.mem t.cancelled id) then f ();
        true
    | _ -> false

  let run ?until t =
    while next t (Option.value until ~default:Float.infinity) do
      ()
    done;
    match until with Some s when s > t.now -> t.now <- s | Some _ | None -> ()

  let step t = next t Float.infinity
end

(* One script, two engines: an [api] is the part of the engine API a
   script uses. *)
type ('h, 'tm) api = {
  now : unit -> float;
  after : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  run : float option -> unit;
  step : unit -> bool;
  timer : unit -> 'tm;
  arm : 'tm -> float -> (unit -> unit) -> unit;
  disarm : 'tm -> unit;
  armed : 'tm -> bool;
}

let sim_api sim =
  {
    now = (fun () -> Sim.now sim);
    after = (fun delay f -> Sim.schedule_after sim ~delay f);
    cancel = Sim.cancel sim;
    run = (fun until -> Sim.run ?until sim);
    step = (fun () -> Sim.step sim);
    timer = (fun () -> Sim.timer sim);
    arm = (fun tm delay f -> Sim.arm tm ~delay f);
    disarm = Sim.disarm;
    armed = Sim.armed;
  }

(* A model timer is [cancel old; old <- schedule_after ~delay f]. *)
let model_api m =
  {
    now = (fun () -> m.Model.now);
    after = (fun delay f -> Model.schedule_after m ~delay f);
    cancel = Model.cancel m;
    run = (fun until -> Model.run ?until m);
    step = (fun () -> Model.step m);
    timer = (fun () -> ref (-1));
    arm =
      (fun h delay f ->
        Model.cancel m !h;
        h := Model.schedule_after m ~delay f);
    disarm =
      (fun h ->
        Model.cancel m !h;
        h := -1);
    armed = (fun h -> Model.is_pending m !h);
  }

let same_log name ~sim ~model =
  if sim <> model then
    QCheck.Test.fail_reportf "%s: sim [%s] <> model [%s]" name
      (String.concat "; " sim) (String.concat "; " model)

(* Pooled scheduler and lane against the list model. Events are
   scheduled first, then for some a canceller at a random grid time (a
   canceller at the event's own time runs after it). Each event may
   start a chain of zero-delay children, all lane entries in [Sim].
   The first [run ~until] is followed by a few [step]s, which can stop
   between a lane entry and heap entries due at the same instant, and
   by a [run ~until] at a grid time that may lie before [now]: it must
   run nothing and leave the clock alone. More events, chains
   included, are then scheduled at [now] or later before the final
   [run]. Times sit on an integer grid, so ties are the rule.
   Afterwards every handle is stale, and stale cancels spare a fresh
   round that recycles the slots. *)
let prop_pooled_scheduler_matches_model =
  let grid = 8 in
  QCheck.Test.make ~name:"pooled scheduler == list model (metamorphic)"
    ~count:300
    QCheck.(
      quad
        (list_of_size
           Gen.(int_range 0 60)
           (triple (int_range 0 (grid - 1))
              (option (int_range 0 (grid - 1)))
              (int_range 0 2)))
        (pair (int_range 0 (grid - 1)) (int_range 0 (grid - 1)))
        (int_range 0 3)
        (small_list (pair (int_range 0 2) (int_range 0 2))))
    (fun (plan, (mid, back), steps, extra) ->
      let script d =
        let log = ref [] in
        let rec chain id k () =
          log := Printf.sprintf "%d@%g" id (d.now ()) :: !log;
          if k > 0 then ignore (d.after 0.0 (chain (id + 1000) (k - 1)))
        in
        let handles =
          List.mapi
            (fun i (at, _, k) -> d.after (float_of_int at) (chain i k))
            plan
        in
        List.iter2
          (fun (_, cancel_at, _) h ->
            Option.iter
              (fun c -> ignore (d.after (float_of_int c) (fun () -> d.cancel h)))
              cancel_at)
          plan handles;
        d.run (Some (float_of_int mid));
        for _ = 1 to steps do
          ignore (d.step ())
        done;
        d.run (Some (float_of_int back));
        log := Printf.sprintf "now=%g" (d.now ()) :: !log;
        List.iteri
          (fun j (delay, k) ->
            ignore (d.after (float_of_int delay) (chain (500 + j) k)))
          extra;
        d.run None;
        (List.rev !log, handles)
      in
      let sim = Sim.create ~check:engine_check () in
      let got, handles = script (sim_api sim) in
      let expected, _ = script (model_api (Model.create ())) in
      same_log "fired" ~sim:got ~model:expected;
      if Sim.pending_events sim <> 0 then
        QCheck.Test.fail_report "calendar not empty after run";
      if List.exists (Sim.is_pending sim) handles then
        QCheck.Test.fail_report "handle still pending after run";
      let second = ref 0 in
      let n = List.length plan in
      let fresh =
        List.init n (fun _ -> Sim.schedule_after sim ~delay:1.0 (fun () -> incr second))
      in
      List.iter (Sim.cancel sim) handles;
      if not (List.for_all (Sim.is_pending sim) fresh) then
        QCheck.Test.fail_report "stale cancel killed a recycled slot";
      Sim.run sim;
      !second = n)

(* Re-armable timers against [cancel old; schedule_after ~delay f] on
   the list model. Pokes at integer grid times arm a timer (delay 0–3,
   so a deadline can move earlier, later, to now, or to a time shared
   with pokes and other deadlines) or disarm it, logging [armed]
   first; a firing timer logs [armed] (false: it is running) and may
   re-arm itself from inside its own event, at delay 0 too. The run is
   split by [run ~until] at a grid time. *)
let prop_timer_matches_cancel_reschedule =
  let grid = 8 and timers = 3 in
  QCheck.Test.make ~name:"timer == cancel + schedule_after (list model)"
    ~count:400
    QCheck.(
      triple
        (list_of_size
           Gen.(int_range 0 40)
           (triple (int_range 0 (grid - 1)) (int_range 0 (timers - 1))
              (option (int_range 0 3))))
        (array_of_size (Gen.return timers) (option (int_range 0 3)))
        (int_range 0 (grid - 1)))
    (fun (pokes, rearm, mid) ->
      let script d =
        let log = ref [] in
        let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
        let tms = Array.init timers (fun _ -> d.timer ()) in
        let fires = Array.make timers 0 in
        let rec action j () =
          note "T%d@%g armed=%b" j (d.now ()) (d.armed tms.(j));
          fires.(j) <- fires.(j) + 1;
          match rearm.(j) with
          | Some delay when fires.(j) < 3 ->
              d.arm tms.(j) (float_of_int delay) (action j)
          | Some _ | None -> ()
        in
        List.iteri
          (fun i (at, j, op) ->
            ignore
              (d.after (float_of_int at) (fun () ->
                   note "P%d@%g armed=%b" i (d.now ()) (d.armed tms.(j));
                   match op with
                   | Some delay -> d.arm tms.(j) (float_of_int delay) (action j)
                   | None -> d.disarm tms.(j))))
          pokes;
        d.run (Some (float_of_int mid));
        note "mid armed=%s"
          (String.concat ","
             (Array.to_list
                (Array.map (fun tm -> string_of_bool (d.armed tm)) tms)));
        d.run None;
        List.rev !log
      in
      let sim = Sim.create ~check:engine_check () in
      same_log "timer log" ~sim:(script (sim_api sim))
        ~model:(script (model_api (Model.create ())));
      true)

(* The int-payload fast path ([schedule_i]) must be indistinguishable
   from [schedule] with a capturing closure: same firing order against
   a mixed plan, correct argument delivery, cancellable, and stale
   after firing. *)
let prop_schedule_i_matches_schedule =
  let grid = 8 in
  QCheck.Test.make ~name:"schedule_i == schedule (mixed plan)" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (pair (int_range 0 (grid - 1)) bool))
    (fun plan ->
      let sim = Sim.create () in
      let fired = ref [] in
      let note i = fired := i :: !fired in
      let handles =
        List.mapi
          (fun i (at, use_int) ->
            if use_int then Sim.schedule_i sim ~at:(float_of_int at) note i
            else Sim.schedule sim ~at:(float_of_int at) (fun () -> note i))
          plan
      in
      List.iter
        (fun h ->
          if not (Sim.is_pending sim h) then
            QCheck.Test.fail_report "freshly scheduled handle not pending")
        handles;
      Sim.run sim;
      let expected =
        List.mapi (fun i (at, _) -> (i, at)) plan
        |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
        |> List.map fst
      in
      let got = List.rev !fired in
      if got <> expected then
        QCheck.Test.fail_reportf "fired [%s] <> model [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected));
      if List.exists (Sim.is_pending sim) handles then
        QCheck.Test.fail_report "handle still pending after firing";
      true)

let test_sim_schedule_i_cancel () =
  let sim = Sim.create () in
  let hits = ref [] in
  let note i = hits := i :: !hits in
  let h1 = Sim.schedule_i sim ~at:1.0 note 10 in
  let _h2 = Sim.schedule_i sim ~at:2.0 note 20 in
  let h3 = Sim.schedule_after_i sim ~delay:3.0 note 30 in
  Sim.cancel sim h1;
  Alcotest.(check bool) "cancelled not pending" false (Sim.is_pending sim h1);
  Alcotest.(check bool) "others pending" true (Sim.is_pending sim h3);
  Sim.run sim;
  Alcotest.(check (list int)) "only uncancelled fire, with their args"
    [ 20; 30 ] (List.rev !hits);
  (* min_int is the free-slot sentinel and must be rejected up front. *)
  Alcotest.check_raises "min_int arg rejected"
    (Invalid_argument "Sim.schedule_i: reserved argument")
    (fun () -> ignore (Sim.schedule_i sim ~at:9.0 note min_int))

let () =
  Alcotest.run "taq_engine"
    [
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "large random" `Quick test_heap_large_random;
          Alcotest.test_case "clear keeps capacity" `Quick
            test_heap_clear_keeps_capacity;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule after" `Quick test_sim_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "cancel from event" `Quick test_sim_cancel_from_event;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "until inclusive" `Quick test_sim_until_boundary_inclusive;
          Alcotest.test_case "step" `Quick test_sim_step;
          Alcotest.test_case "cascading" `Quick test_sim_cascading_events;
          Alcotest.test_case "same-time from event" `Quick
            test_sim_same_time_event_scheduled_during_event;
          Alcotest.test_case "allocation-free" `Quick test_sim_allocation_free;
          Alcotest.test_case "stale handle inert" `Quick
            test_sim_stale_handle_inert;
          Alcotest.test_case "stale after fire" `Quick
            test_sim_handle_stale_after_fire;
          Alcotest.test_case "schedule_i cancel + args" `Quick
            test_sim_schedule_i_cancel;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_engine"))
          [
            prop_heap_drains_sorted;
            prop_cancelled_events_never_fire;
            prop_heap_matches_reference;
            prop_pooled_scheduler_matches_model;
            prop_timer_matches_cancel_reschedule;
            prop_schedule_i_matches_schedule;
          ] );
    ]

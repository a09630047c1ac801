(* Tests for the discrete-event engine: heap ordering, FIFO tie-break,
   scheduling, timers superseding their pending entries, run-until
   semantics, NaN rejection — plus the differential battery that locks
   the flat struct-of-arrays heap and the pooled slot-table scheduler
   to their reference semantics. *)

open Taq_engine

(* --- Event_heap ------------------------------------------------------- *)

(* The heap keeps only what [Sim] calls. A push under a fresh seq, an
   unbounded pop and a peek are built from it here. *)
let push h ~time p =
  Event_heap.push_seq h ~seq:(Event_heap.reserve_seq h) [| time |] p

let pop h =
  let clock = [| 0.0; Float.infinity |] in
  match Event_heap.pop_due h clock with
  | -1 -> None
  | p -> Some (clock.(0), p)

let peek_time h =
  if Event_heap.is_empty h then None else Some (Event_heap.top_time h)

let test_heap_ordering () =
  let h = Event_heap.create () in
  List.iteri (fun i t -> push h ~time:t i) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match pop h with
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
    push h ~time:1.0 i
  done;
  let order = ref [] in
  let rec drain () =
    match pop h with
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
  Alcotest.(check int) "size" 0 (Event_heap.size h);
  (match Event_heap.top_time h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "top_time on empty should raise");
  let clock = [| 0.0; Float.infinity |] in
  Alcotest.(check int) "pop_due none" (-1) (Event_heap.pop_due h clock);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 clock.(0)

let test_heap_interleaved () =
  let h = Event_heap.create () in
  push h ~time:2.0 1;
  push h ~time:1.0 2;
  (match pop h with
  | Some (_, 2) -> ()
  | _ -> Alcotest.fail "expected payload 2");
  push h ~time:0.5 3;
  (match pop h with
  | Some (_, 3) -> ()
  | _ -> Alcotest.fail "expected payload 3");
  Alcotest.(check int) "one left" 1 (Event_heap.size h)

let test_heap_large_random () =
  let prng = Taq_util.Prng.create ~seed:77 in
  let h = Event_heap.create () in
  let n = 10_000 in
  for i = 1 to n do
    push h ~time:(Taq_util.Prng.float prng 1000.0) i
  done;
  let last = ref neg_infinity in
  let rec drain count =
    match pop h with
    | None -> count
    | Some (t, _) ->
        if t < !last then Alcotest.failf "heap disorder: %g after %g" t !last;
        last := t;
        drain (count + 1)
  in
  Alcotest.(check int) "all drained" n (drain 0)

(* --- Sim -------------------------------------------------------------- *)

(* The batteries run [Sim] with its Engine invariants on, so a lane
   entry that overtakes a due heap entry raises even before the logs
   are compared. *)
let engine_check = Taq_check.Check.create ~groups:[ Taq_check.Check.Engine ] ()

let skipped obs =
  Taq_obs.Obs.counter_value (Taq_obs.Obs.snapshot obs) "sim.events_skipped"

let rejects name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s accepted a NaN" name

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~at:3.0 (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let observed = ref nan in
  Sim.schedule sim ~at:1.5 (fun () -> observed := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "clock at event time" 1.5 !observed

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let observed = ref nan in
  Sim.schedule sim ~at:1.0 (fun () ->
      Sim.schedule_after sim ~delay:0.5 (fun () -> observed := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "relative delay" 1.5 !observed

let test_sim_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:5.0 (fun () -> ());
  Sim.run sim;
  match Sim.schedule sim ~at:1.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "scheduling in the past should raise"

(* A timer re-armed earlier supersedes its pending entry. The entry
   stays on the calendar: it pops at its own time, moves the clock,
   runs nothing and is counted once as skipped. *)
let test_sim_superseded_entry_skipped () =
  let obs = Taq_obs.Obs.create () in
  let sim = Sim.create ~obs () in
  let tm = Sim.timer sim in
  let log = ref [] in
  let note s () = log := Printf.sprintf "%s@%g" s (Sim.now sim) :: !log in
  Sim.arm tm ~delay:5.0 (note "old");
  Sim.arm tm ~delay:2.0 (note "new");
  Alcotest.(check int) "both entries filed" 2 (Sim.pending_events sim);
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check (list string)) "new deadline ran" [ "new@2" ] !log;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check (float 0.0)) "superseded entry moved the clock" 5.0
    (Sim.now sim);
  Alcotest.(check (list string)) "and ran nothing" [ "new@2" ] !log;
  Alcotest.(check int) "counted once as skipped" 1 (skipped obs);
  Alcotest.(check bool) "calendar drained" false (Sim.step sim);
  Alcotest.(check int) "still once" 1 (skipped obs)

(* The same from inside an event: the superseded entry shares its
   instant with a later-filed event and pops first, running nothing. *)
let test_sim_superseded_from_event () =
  let obs = Taq_obs.Obs.create () in
  let sim = Sim.create ~check:engine_check ~obs () in
  let tm = Sim.timer sim in
  let log = ref [] in
  let note s () = log := Printf.sprintf "%s@%g" s (Sim.now sim) :: !log in
  Sim.arm tm ~delay:4.0 (note "T");
  Sim.schedule sim ~at:1.0 (fun () ->
      note "E" ();
      Sim.arm tm ~delay:1.0 (note "T'"));
  Sim.schedule sim ~at:4.0 (note "after");
  Sim.run sim;
  Alcotest.(check (list string))
    "old action never runs" [ "E@1"; "T'@2"; "after@4" ] (List.rev !log);
  Alcotest.(check int) "counted once as skipped" 1 (skipped obs);
  Alcotest.(check int) "calendar drained" 0 (Sim.pending_events sim)

(* A superseded entry keeps its slot until it leaves the calendar. Were
   the slot freed at [arm], the event filed at t=1 would take it and the
   dead entry would run that event's action at t=5. *)
let test_sim_superseded_slot_kept () =
  let sim = Sim.create ~check:engine_check () in
  let tm = Sim.timer sim in
  let log = ref [] in
  let note s () = log := Printf.sprintf "%s@%g" s (Sim.now sim) :: !log in
  Sim.arm tm ~delay:5.0 (note "T5");
  Sim.arm tm ~delay:1.0 (fun () ->
      note "T1" ();
      Sim.schedule_after sim ~delay:6.0 (note "F"));
  Sim.run sim;
  Alcotest.(check (list string))
    "fresh event runs once, at its time" [ "T1@1"; "F@7" ] (List.rev !log)

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~at:(float_of_int i) (fun () -> incr count)
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "only events <= until" 5 !count;
  Alcotest.(check (float 1e-12)) "clock parked at until" 5.5 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest run afterwards" 10 !count

let test_sim_until_boundary_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~at:2.0 (fun () -> fired := true);
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "event exactly at until runs" true !fired

let test_sim_step () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~at:2.0 (fun () -> log := 2 :: !log);
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
    if !hops < 100 then Sim.schedule_after sim ~delay:0.1 hop
  in
  Sim.schedule sim ~at:0.0 hop;
  Sim.run sim;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check (float 1e-6)) "time accumulated" 9.9 (Sim.now sim)

let test_sim_same_time_event_scheduled_during_event () =
  (* An event scheduling another event at the same timestamp must run it
     in the same run (after the current one). *)
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:1.0 (fun () ->
      log := "first" :: !log;
      Sim.schedule sim ~at:1.0 (fun () -> log := "second" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "both ran" [ "first"; "second" ] (List.rev !log)

(* Allocation-free hot path: after warm-up, an event that reschedules
   itself with [schedule_after] (one shared closure, constant delay)
   allocates nothing across scheduling, filing, popping and firing —
   and neither does re-arming a timer with a later deadline from every
   hop, whose pending entry fires early and re-files itself, nor
   superseding a second timer's entry with an earlier deadline every
   other hop. *)
let test_sim_allocation_free () =
  let sim = Sim.create () in
  let tm = Sim.timer sim and tm2 = Sim.timer sim in
  let remaining = ref 0 in
  let rec hop () =
    decr remaining;
    Sim.arm tm ~delay:1.0 ignore;
    Sim.arm tm2 ~delay:(if !remaining land 1 = 0 then 1.0 else 0.1) ignore;
    if !remaining > 0 then Sim.schedule_after sim ~delay:0.25 hop
  in
  let cycle n =
    remaining := n;
    Sim.schedule_after sim ~delay:0.25 hop;
    Sim.run sim
  in
  cycle 1_000;
  let n = 100_000 in
  let before = Gc.minor_words () in
  cycle n;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words per event" 0.0 (words /. float_of_int n)

(* The int-payload path delivers each argument at its time (negative
   delays clamp to now, like [schedule_after]'s) and rejects the
   reserved [min_int] before filing anything. *)
let test_sim_schedule_after_i_args () =
  let sim = Sim.create () in
  let hits = ref [] in
  let note i = hits := (i, Sim.now sim) :: !hits in
  Sim.schedule_after_i sim ~delay:2.0 note 20;
  Sim.schedule_after_i sim ~delay:1.0 note 10;
  Sim.schedule_after_i sim ~delay:0.0 note (-5);
  Sim.schedule_after_i sim ~delay:(-1.0) note 0;
  Sim.run sim;
  Alcotest.(check (list (pair int (float 0.0))))
    "args in time order"
    [ (-5, 0.0); (0, 0.0); (10, 1.0); (20, 2.0) ]
    (List.rev !hits);
  Alcotest.check_raises "min_int arg rejected"
    (Invalid_argument "Sim.schedule_after_i: reserved argument") (fun () ->
      Sim.schedule_after_i sim ~delay:1.0 note min_int);
  Alcotest.(check int) "nothing filed" 0 (Sim.pending_events sim)

(* A NaN time compares false with everything, so on the heap's root it
   would stall [pop_due] and strand every later entry, and [run] would
   return as if the calendar were empty. Each entry point raises
   instead, files nothing, and the calendar still runs. *)
let test_sim_nan_times_rejected () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.schedule sim ~at:1.0 (fun () -> incr ran);
  let tm = Sim.timer sim in
  rejects "schedule ~at" (fun () -> Sim.schedule sim ~at:nan ignore);
  Alcotest.check_raises "schedule_after ~delay"
    (Invalid_argument "Sim.schedule_after: delay is nan") (fun () ->
      Sim.schedule_after sim ~delay:nan ignore);
  rejects "schedule_after_i ~delay" (fun () ->
      Sim.schedule_after_i sim ~delay:nan ignore 0);
  rejects "arm ~delay" (fun () -> Sim.arm tm ~delay:nan ignore);
  Alcotest.(check bool) "timer not armed" false (Sim.armed tm);
  Alcotest.(check int) "nothing filed" 1 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check int) "calendar still runs" 1 !ran

(* A NaN horizon ran no event and a NaN period scheduled no tick, both
   without an error. *)
let test_sim_nan_horizon_rejected () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.schedule sim ~at:1.0 (fun () -> incr ran);
  rejects "run ~until" (fun () -> Sim.run ~until:nan sim);
  Alcotest.(check int) "nothing ran" 0 !ran;
  rejects "every ~period" (fun () ->
      Sim.every sim ~period:nan ~until:10.0 ignore);
  rejects "every ~until" (fun () -> Sim.every sim ~period:1.0 ~until:nan ignore);
  Alcotest.(check int) "nothing filed" 1 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check int) "calendar still runs" 1 !ran;
  Alcotest.(check (float 0.0)) "clock" 1.0 (Sim.now sim)

(* --- qcheck properties ------------------------------------------------- *)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap always drains sorted" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0.0 1e6))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> push h ~time:t i) times;
      let rec drain last ok =
        match pop h with None -> ok | Some (t, _) -> drain t (ok && t >= last)
      in
      drain neg_infinity true)

(* Timers armed at random times, some disarmed and some re-armed with
   another action at a random delay (earlier, later or the same): a
   disarmed or replaced action never runs, and every other action runs
   exactly once, at its deadline, in (deadline, arming) order. *)
let prop_replaced_actions_never_run =
  QCheck.Test.make ~name:"disarmed or replaced timer actions never run"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 0 50)
        (pair (int_range 0 7) (option (option (int_range 0 7)))))
    (fun plan ->
      let sim = Sim.create ~check:engine_check () in
      let ran = ref [] in
      let note i () = ran := (Sim.now sim, i) :: !ran in
      let expected =
        List.concat
          (List.mapi
             (fun i (at, op) ->
               let tm = Sim.timer sim in
               Sim.arm tm ~delay:(float_of_int at) (note i);
               match op with
               | None -> [ (float_of_int at, i) ]
               | Some None ->
                   Sim.disarm tm;
                   []
               | Some (Some at') ->
                   Sim.arm tm ~delay:(float_of_int at') (note (1000 + i));
                   [ (float_of_int at', 1000 + i) ])
             plan)
      in
      Sim.run sim;
      (* Arming order is list order, replacements included: stable sort
         by deadline alone gives the calendar's order. *)
      List.rev !ran
      = List.stable_sort (fun (a, _) (b, _) -> compare a b) expected
      && Sim.pending_events sim = 0)

(* Differential battery: the flat struct-of-arrays heap run lock-step
   against the retained boxed reference under random interleavings of
   pushes and pops (built on the flat heap from [reserve_seq],
   [push_seq] and [pop_due] above), seq reservations filed late
   ([reserve_seq] then [push_seq], oldest or newest outstanding
   reservation first) and due-bounded pops ([pop_due]). Times and
   limits are drawn from a small discrete grid so ties are frequent —
   the FIFO tie-break must match exactly — and after every operation
   the sizes and head times must agree. The mix is push-heavy: pushes
   outweigh pops and [pop_due]s 10 to 4, so most cases outgrow the
   initial capacity of 16 (the grow path) and ties sift through several
   levels. *)
let prop_heap_matches_reference =
  (* (kind, arg): 0 push at arg/2, 1 pop, 2 reserve a seq, 3 file a
     reserved seq at arg/2, 4 pop_due with limit arg/2 *)
  let op_gen =
    QCheck.Gen.(
      pair
        (frequency
           [ (10, return 0); (2, return 1); (1, return 2); (1, return 3); (2, return 4) ])
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
        if peek_time flat <> Event_heap_ref.peek_time boxed then
          QCheck.Test.fail_reportf "%s: head time disagrees" where
      in
      List.iter
        (fun (kind, arg) ->
          let time = float_of_int arg /. 2.0 in
          match kind with
          | 0 ->
              incr payload;
              push flat ~time !payload;
              Event_heap_ref.push boxed ~time !payload;
              agree "push"
          | 1 ->
              let a = pop flat and b = Event_heap_ref.pop boxed in
              if a <> b then
                QCheck.Test.fail_reportf "pop disagrees: flat=%s ref=%s"
                  (pp a) (pp b);
              agree "pop"
          | 2 ->
              let a = Event_heap.reserve_seq flat
              and b = Event_heap_ref.reserve_seq boxed in
              if a <> b then
                QCheck.Test.fail_reportf "reserve_seq: %d <> ref %d" a b;
              reserved := !reserved @ [ a ]
          | 3 -> (
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
        let a = pop flat and b = Event_heap_ref.pop boxed in
        if a <> b then QCheck.Test.fail_report "drain order disagrees";
        if a <> None then drain ()
      in
      drain ();
      true)

(* The engine's semantics as a list model: one calendar sorted by
   (time, scheduling order), no lane, no timer primitive. A cancelled
   entry stays and is taken off in its turn, moving the clock but
   running nothing, as a superseded timer entry does in [Sim]. The
   lane and timer batteries run one script against this model and
   against [Sim] and require the same log. *)
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
type 'tm api = {
  now : unit -> float;
  after : float -> (unit -> unit) -> unit;
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
    after = (fun delay f -> ignore (Model.schedule_after m ~delay f));
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
   scheduled at random grid times; some are timers instead, each with a
   canceller at a random grid time (a canceller at the event's own time
   runs after it) that disarms the timer or re-arms it at delay 0–2,
   which supersedes the pending entry when the new deadline is earlier.
   Each event may start a chain of zero-delay children, all lane
   entries in [Sim]. The first [run ~until] is followed by a few
   [step]s, which can stop between a lane entry and heap entries due at
   the same instant, and by a [run ~until] at a grid time that may lie
   before [now]: it must run nothing and leave the clock alone. More
   events, chains included, are then scheduled at [now] or later before
   the final [run]. Times sit on an integer grid, so ties are the rule.
   Afterwards no timer is armed, the calendar is empty, and a fresh
   round that recycles the slots runs in full. *)
let prop_pooled_scheduler_matches_model =
  let grid = 8 in
  QCheck.Test.make ~name:"pooled scheduler == list model (metamorphic)"
    ~count:300
    QCheck.(
      quad
        (list_of_size
           Gen.(int_range 0 60)
           (triple (int_range 0 (grid - 1))
              (option (pair (int_range 0 (grid - 1)) (option (int_range 0 2))))
              (int_range 0 2)))
        (pair (int_range 0 (grid - 1)) (int_range 0 (grid - 1)))
        (int_range 0 3)
        (small_list (pair (int_range 0 2) (int_range 0 2))))
    (fun (plan, (mid, back), steps, extra) ->
      let script d =
        let log = ref [] in
        let rec chain id k () =
          log := Printf.sprintf "%d@%g" id (d.now ()) :: !log;
          if k > 0 then d.after 0.0 (chain (id + 1000) (k - 1))
        in
        let timers =
          List.concat
            (List.mapi
               (fun i (at, cancel, k) ->
                 match cancel with
                 | None ->
                     d.after (float_of_int at) (chain i k);
                     []
                 | Some (c, rearm) ->
                     let tm = d.timer () in
                     d.arm tm (float_of_int at) (chain i k);
                     d.after (float_of_int c) (fun () ->
                         match rearm with
                         | None -> d.disarm tm
                         | Some r -> d.arm tm (float_of_int r) (chain (i + 2000) k));
                     [ tm ])
               plan)
        in
        d.run (Some (float_of_int mid));
        for _ = 1 to steps do
          ignore (d.step ())
        done;
        d.run (Some (float_of_int back));
        log := Printf.sprintf "now=%g" (d.now ()) :: !log;
        List.iteri
          (fun j (delay, k) -> d.after (float_of_int delay) (chain (500 + j) k))
          extra;
        d.run None;
        (List.rev !log, timers)
      in
      let sim = Sim.create ~check:engine_check () in
      let got, timers = script (sim_api sim) in
      let expected, _ = script (model_api (Model.create ())) in
      same_log "fired" ~sim:got ~model:expected;
      if Sim.pending_events sim <> 0 then
        QCheck.Test.fail_report "calendar not empty after run";
      if List.exists Sim.armed timers then
        QCheck.Test.fail_report "timer still armed after run";
      let second = ref 0 in
      let n = List.length plan in
      for _ = 1 to n do
        Sim.schedule_after sim ~delay:1.0 (fun () -> incr second)
      done;
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
            d.after (float_of_int at) (fun () ->
                note "P%d@%g armed=%b" i (d.now ()) (d.armed tms.(j));
                match op with
                | Some delay -> d.arm tms.(j) (float_of_int delay) (action j)
                | None -> d.disarm tms.(j)))
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

(* A storm of re-arms mixed with fresh [schedule_after] events, issued
   from pokes at grid times and from inside the timers' own actions,
   each of which files a fresh event and re-arms itself nearer. Many
   re-arms supersede a pending entry, and the fresh events filed before
   that entry's time reuse freed slots: every fresh event must run
   exactly once, at its time, in (time, filing) order. *)
let prop_rearm_storm =
  let grid = 8 and timers = 3 in
  QCheck.Test.make ~name:"re-arm storm: fresh events run once, in order"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 80)
        (triple (int_range 0 (grid - 1)) (int_range 0 timers) (int_range 0 4)))
    (fun ops ->
      let sim = Sim.create ~check:engine_check () in
      let tms = Array.init timers (fun _ -> Sim.timer sim) in
      let filed = ref [] and ran = ref [] and next_id = ref 0 in
      let fresh delay =
        let id = !next_id and at = Sim.now sim +. float_of_int delay in
        incr next_id;
        filed := (at, id) :: !filed;
        Sim.schedule_after sim ~delay:(float_of_int delay) (fun () ->
            ran := (Sim.now sim, id) :: !ran)
      in
      let rec action j delay () =
        fresh delay;
        if delay > 0 then
          Sim.arm tms.(j) ~delay:(float_of_int (delay - 1)) (action j (delay - 1))
      in
      List.iter
        (fun (at, j, delay) ->
          Sim.schedule sim ~at:(float_of_int at) (fun () ->
              if j = timers then fresh delay
              else Sim.arm tms.(j) ~delay:(float_of_int delay) (action j delay)))
        ops;
      Sim.run sim;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !filed)
      in
      if List.rev !ran <> expected then
        QCheck.Test.fail_reportf "fresh events ran [%s], filed [%s]"
          (String.concat "; "
             (List.map (fun (t, i) -> Printf.sprintf "%d@%g" i t) (List.rev !ran)))
          (String.concat "; "
             (List.map (fun (t, i) -> Printf.sprintf "%d@%g" i t) expected));
      Sim.pending_events sim = 0)

(* The int-payload path ([schedule_after_i]) must be indistinguishable
   from [schedule_after] with a capturing closure: same firing order
   against a mixed plan, and correct argument delivery. *)
let prop_schedule_after_i_matches_schedule_after =
  let grid = 8 in
  QCheck.Test.make ~name:"schedule_after_i == schedule_after (mixed plan)"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (pair (int_range 0 (grid - 1)) bool))
    (fun plan ->
      let sim = Sim.create () in
      let fired = ref [] in
      let note i = fired := i :: !fired in
      List.iteri
        (fun i (delay, use_int) ->
          let delay = float_of_int delay in
          if use_int then Sim.schedule_after_i sim ~delay note i
          else Sim.schedule_after sim ~delay (fun () -> note i))
        plan;
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
      true)

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
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule after" `Quick test_sim_schedule_after;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "superseded entry skipped" `Quick
            test_sim_superseded_entry_skipped;
          Alcotest.test_case "superseded from event" `Quick
            test_sim_superseded_from_event;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "until inclusive" `Quick test_sim_until_boundary_inclusive;
          Alcotest.test_case "step" `Quick test_sim_step;
          Alcotest.test_case "cascading" `Quick test_sim_cascading_events;
          Alcotest.test_case "same-time from event" `Quick
            test_sim_same_time_event_scheduled_during_event;
          Alcotest.test_case "allocation-free" `Quick test_sim_allocation_free;
          Alcotest.test_case "superseded slot kept" `Quick
            test_sim_superseded_slot_kept;
          Alcotest.test_case "schedule_after_i args" `Quick
            test_sim_schedule_after_i_args;
          Alcotest.test_case "nan times rejected" `Quick
            test_sim_nan_times_rejected;
          Alcotest.test_case "nan horizon rejected" `Quick
            test_sim_nan_horizon_rejected;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_engine"))
          [
            prop_heap_drains_sorted;
            prop_replaced_actions_never_run;
            prop_heap_matches_reference;
            prop_pooled_scheduler_matches_model;
            prop_timer_matches_cancel_reschedule;
            prop_schedule_after_i_matches_schedule_after;
            prop_rearm_storm;
          ] );
    ]

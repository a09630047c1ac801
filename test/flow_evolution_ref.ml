(* Flow evolution as it stood before per-flow bitmaps: one table entry
   per (window, flow) pair with delivered data, keyed by the pair
   packed into an int. Kept verbatim as the reference the differential
   battery in test_metrics drives alongside
   [Taq_metrics.Flow_evolution], bar this header and its tables: they
   were [Taq_util.Int_tbl]s and are now [Stdlib.Hashtbl]s, so a fault
   in [Int_tbl] cannot hide in the differential test. *)

type class_ = Maintained | Dropped | Arriving | Stalled

let classify ~active_prev ~active_cur =
  match (active_prev, active_cur) with
  | true, true -> Maintained
  | true, false -> Dropped
  | false, true -> Arriving
  | false, false -> Stalled

type life = { start : float; mutable finish : float (* infinity = live *) }

(* Activity keys pack (window, flow) into one int — [note_activity]
   runs once per delivered segment and a tuple key would allocate per
   call. Flow ids must fit in [flow_bits]. *)
let flow_bits = 22

let key w flow = (w lsl flow_bits) lor flow

type t = {
  window : float;
  activity : (int, unit) Hashtbl.t;  (* key window flow -> active *)
  lives : (int, life) Hashtbl.t;
}

let create ~window =
  if window <= 0.0 then invalid_arg "Flow_evolution.create: window";
  { window; activity = Hashtbl.create 1024; lives = Hashtbl.create 64 }

let widx t time = int_of_float (time /. t.window)

let note_start t ~flow ~time =
  if not (Hashtbl.mem t.lives flow) then
    Hashtbl.replace t.lives flow { start = time; finish = infinity }

let note_activity t ~flow ~time =
  if flow lsr flow_bits <> 0 then
    invalid_arg "Flow_evolution.note_activity: flow id too large";
  Hashtbl.replace t.activity (key (widx t time) flow) ()

let note_finish t ~flow ~time =
  match Hashtbl.find_opt t.lives flow with
  | Some l -> l.finish <- time
  | None -> ()

type series = {
  window : float;
  times : float array;
  maintained : int array;
  dropped : int array;
  arriving : int array;
  stalled : int array;
  live : int array;
}

let series t ~until =
  let n = widx t until + 1 in
  let maintained = Array.make n 0
  and dropped = Array.make n 0
  and arriving = Array.make n 0
  and stalled = Array.make n 0
  and live = Array.make n 0 in
  Hashtbl.iter
    (fun flow l ->
      let first_w = widx t l.start in
      let last_w =
        if l.finish = infinity then n - 1 else Stdlib.min (n - 1) (widx t l.finish)
      in
      for w = Stdlib.max 1 first_w to last_w do
        live.(w) <- live.(w) + 1;
        let active_prev = Hashtbl.mem t.activity (key (w - 1) flow) in
        let active_cur = Hashtbl.mem t.activity (key w flow) in
        match classify ~active_prev ~active_cur with
        | Maintained -> maintained.(w) <- maintained.(w) + 1
        | Dropped -> dropped.(w) <- dropped.(w) + 1
        | Arriving -> arriving.(w) <- arriving.(w) + 1
        | Stalled -> stalled.(w) <- stalled.(w) + 1
      done)
    t.lives;
  {
    window = t.window;
    times = Array.init n (fun w -> float_of_int w *. t.window);
    maintained;
    dropped;
    arriving;
    stalled;
    live;
  }

let mean_fraction counts live =
  let acc = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun w c ->
      if live.(w) > 0 then begin
        acc := !acc +. (float_of_int c /. float_of_int live.(w));
        incr n
      end)
    counts;
  if !n = 0 then 0.0 else !acc /. float_of_int !n

let stalled_fraction s = mean_fraction s.stalled s.live

let maintained_fraction s = mean_fraction s.maintained s.live

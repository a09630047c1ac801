module Itbl = Taq_util.Int_tbl
type class_ = Maintained | Dropped | Arriving | Stalled

let classify ~active_prev ~active_cur =
  match (active_prev, active_cur) with
  | true, true -> Maintained
  | true, false -> Dropped
  | false, true -> Arriving
  | false, false -> Stalled

type life = { start : float; mutable finish : float (* infinity = live *) }

type t = {
  window : float;
  activity : Bytes.t Itbl.t;
      (* flow -> bitmap of the windows it delivered in (window [w] is bit
         [w land 7] of byte [w lsr 3]), doubled on demand. Keyed by flow
         alone, so [note_activity] is one lookup whatever the horizon. *)
  lives : life Itbl.t;
}

let create ~window =
  if window <= 0.0 then invalid_arg "Flow_evolution.create: window";
  { window; activity = Itbl.create 64; lives = Itbl.create 64 }

let widx t time = int_of_float (time /. t.window)

let note_start t ~flow ~time =
  if not (Itbl.mem t.lives flow) then
    Itbl.replace t.lives flow { start = time; finish = infinity }

let bitmap t flow = try Itbl.find t.activity flow with Not_found -> Bytes.empty

let note_activity t ~flow ~time =
  if not (time >= 0.0) then
    invalid_arg "Flow_evolution.note_activity: negative time";
  let w = widx t time in
  let i = w lsr 3 in
  let bits = bitmap t flow in
  let bits =
    if i < Bytes.length bits then bits
    else begin
      let n = ref (Int.max 8 (Bytes.length bits)) in
      while !n <= i do
        n := 2 * !n
      done;
      let b = Bytes.make !n '\000' in
      Bytes.blit bits 0 b 0 (Bytes.length bits);
      Itbl.replace t.activity flow b;
      b
    end
  in
  Bytes.set_uint8 bits i (Bytes.get_uint8 bits i lor (1 lsl (w land 7)))

let active bits w =
  let i = w lsr 3 in
  i < Bytes.length bits && Bytes.get_uint8 bits i land (1 lsl (w land 7)) <> 0

let note_finish t ~flow ~time =
  match Itbl.find_opt t.lives flow with
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
  Itbl.iter
    (fun flow l ->
      let bits = bitmap t flow in
      let first_w = widx t l.start in
      let last_w =
        if l.finish = infinity then n - 1 else Int.min (n - 1) (widx t l.finish)
      in
      for w = Int.max 1 first_w to last_w do
        live.(w) <- live.(w) + 1;
        let active_prev = active bits (w - 1) and active_cur = active bits w in
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

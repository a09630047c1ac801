(* Host time in reference seconds.

   The benchmark's host speed drifts: on the 2-vCPU VM it was written
   on, a fixed loop took anywhere from 0.07 to 0.16 s within three
   minutes, with no steal time reported, and a simulator pass varied
   as much. No repetition inside a 15 s run removes drift on that
   scale. So every host interval the benchmark reports is bracketed by
   runs of a fixed reference computation and scaled by [nominal_ns] /
   (mean of the two reference durations): a number of reference
   seconds, which cancels drift that slows the reference and the
   simulator alike.

   The reference is the kind of work the simulator does: a stream of
   short-lived allocations, in-place hashtable updates and a list
   walk. Its live set is a preallocated table and at most one short
   list, so it adds nothing lasting to the heap. It runs at fixed
   points of each simulation (between slices of simulated time, never
   on a host-time schedule), so its allocations keep the pass
   deterministic. The words it allocates are counted and kept out of
   the allocation figures. *)

(* The reference's typical duration on the machine the benchmark was
   written on; it only fixes the unit. *)
let nominal_ns = 2_000_000.0

let table =
  let h = Hashtbl.create 8_192 in
  for i = 0 to 4_095 do
    Hashtbl.replace h (i * 13) i
  done;
  h

let reference () =
  let t0 = Probe.now_ns () in
  let acc = ref [] and n = ref 0 and sum = ref 0.0 in
  for i = 0 to 25_000 do
    let k = (i * 7919) land 4_095 * 13 in
    Hashtbl.replace table k (Hashtbl.find table k + 1);
    acc := (i, float_of_int i) :: !acc;
    incr n;
    if !n = 512 then begin
      List.iter (fun (_, f) -> sum := !sum +. f) !acc;
      acc := [];
      n := 0
    end
  done;
  ignore (Sys.opaque_identity !sum);
  float_of_int (Probe.now_ns () - t0)

type t = {
  mutable last : float;  (** duration of the latest reference run, ns *)
  durations : float Queue.t;  (** every reference run, ns *)
  mutable words : float;  (** minor words the reference runs allocated *)
}

let measure t =
  let w0 = Gc.minor_words () in
  let d = reference () in
  Queue.push d t.durations;
  t.words <- t.words +. (Gc.minor_words () -. w0);
  d

let create () =
  let t = { last = 0.0; durations = Queue.create (); words = 0.0 } in
  t.last <- measure t;
  t

(* [seconds t raw_ns]: an interval of [raw_ns] host nanoseconds that
   ended just now, in reference seconds. Runs the reference again, so
   the next interval is bracketed too. *)
let seconds t raw_ns =
  let before = t.last in
  let after = measure t in
  t.last <- after;
  float_of_int raw_ns /. 1e9 *. nominal_ns /. ((before +. after) /. 2.0)

let median_ms t =
  let a = Array.of_seq (Queue.to_seq t.durations) in
  Array.sort compare a;
  a.(Array.length a / 2) /. 1e6

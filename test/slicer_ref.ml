(* The slicer as it stood before per-flow cells: one [Int_tbl] keyed by
   (slice, flow) packed into an int, so every slice of a flow lands in
   the flow's bucket and a new slice walks a chain that grows with
   simulated time. Kept verbatim (bar this header) as the reference the
   differential battery in test_metrics drives alongside
   [Taq_metrics.Slicer]. *)

module Itbl = Taq_util.Int_tbl
(* Cell keys pack (slice, flow) into one int: a tuple key would
   allocate on every lookup, and [record] runs once per delivered
   segment. Flow ids must fit in [flow_bits] (checked at [record]). *)
let flow_bits = 22

let key s flow = (s lsl flow_bits) lor flow

type t = {
  slice : float;
  cells : int Itbl.t;  (* key slice flow -> bytes *)
  totals : int Itbl.t;  (* flow -> bytes *)
  mutable max_slice : int;
}

let create ~slice =
  if slice <= 0.0 then invalid_arg "Slicer.create: slice";
  { slice; cells = Itbl.create 1024; totals = Itbl.create 64; max_slice = -1 }

let slice_of t time = int_of_float (time /. t.slice)

let record t ~flow ~time ~bytes =
  if flow lsr flow_bits <> 0 then invalid_arg "Slicer.record: flow id too large";
  let s = slice_of t time in
  if s > t.max_slice then t.max_slice <- s;
  let k = key s flow in
  let prev = try Itbl.find t.cells k with Not_found -> 0 in
  Itbl.replace t.cells k (prev + bytes);
  let tot = try Itbl.find t.totals flow with Not_found -> 0 in
  Itbl.replace t.totals flow (tot + bytes)

let slice_length t = t.slice

let slice_count t = t.max_slice + 1

let bytes_in_slice t ~slice ~flow =
  try Itbl.find t.cells (key slice flow) with Not_found -> 0

let flow_total t ~flow = try Itbl.find t.totals flow with Not_found -> 0

let slice_vector t ~flows ~slice =
  Array.map (fun f -> float_of_int (bytes_in_slice t ~slice ~flow:f)) flows

let jain_per_slice t ~flows =
  Array.init (slice_count t) (fun s ->
      Taq_util.Stats.jain_index (slice_vector t ~flows ~slice:s))

let mean_jain t ~flows ?(first = 0) ?last () =
  let last = match last with Some l -> l | None -> slice_count t - 1 in
  let acc = ref 0.0 and n = ref 0 in
  for s = first to last do
    let v = slice_vector t ~flows ~slice:s in
    if Taq_util.Stats.sum v > 0.0 then begin
      acc := !acc +. Taq_util.Stats.jain_index v;
      incr n
    end
  done;
  if !n = 0 then nan else !acc /. float_of_int !n

let long_term_jain t ~flows =
  Taq_util.Stats.jain_index
    (Array.map (fun f -> float_of_int (flow_total t ~flow:f)) flows)

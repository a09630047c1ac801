(* The slicer as it stood before per-flow cells: one table keyed by
   (slice, flow) packed into an int, where every slice of a flow landed
   in the flow's bucket and a new slice walked a chain that grew with
   simulated time. Kept verbatim as the reference the differential
   battery in test_metrics drives alongside [Taq_metrics.Slicer], bar
   this header and its table: that was a [Taq_util.Int_tbl] and is now
   a [Stdlib.Hashtbl]. A fault in [Int_tbl] then cannot hide in the
   differential test, and the packed keys are the ones [Int_tbl]
   forbids: they share the flow's low bits, which under its linear
   probing puts every slice of a flow in one probe run. *)

(* Cell keys pack (slice, flow) into one int: a tuple key would
   allocate on every lookup, and [record] runs once per delivered
   segment. Flow ids must fit in [flow_bits] (checked at [record]). *)
let flow_bits = 22

let key s flow = (s lsl flow_bits) lor flow

type t = {
  slice : float;
  cells : (int, int) Hashtbl.t;  (* key slice flow -> bytes *)
  totals : (int, int) Hashtbl.t;  (* flow -> bytes *)
  mutable max_slice : int;
}

let create ~slice =
  if slice <= 0.0 then invalid_arg "Slicer.create: slice";
  { slice; cells = Hashtbl.create 1024; totals = Hashtbl.create 64; max_slice = -1 }

let slice_of t time = int_of_float (time /. t.slice)

let record t ~flow ~time ~bytes =
  if flow lsr flow_bits <> 0 then invalid_arg "Slicer.record: flow id too large";
  let s = slice_of t time in
  if s > t.max_slice then t.max_slice <- s;
  let k = key s flow in
  let prev = try Hashtbl.find t.cells k with Not_found -> 0 in
  Hashtbl.replace t.cells k (prev + bytes);
  let tot = try Hashtbl.find t.totals flow with Not_found -> 0 in
  Hashtbl.replace t.totals flow (tot + bytes)

let slice_length t = t.slice

let slice_count t = t.max_slice + 1

let bytes_in_slice t ~slice ~flow =
  try Hashtbl.find t.cells (key slice flow) with Not_found -> 0

let flow_total t ~flow = try Hashtbl.find t.totals flow with Not_found -> 0

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

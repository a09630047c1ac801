module Itbl = Taq_util.Int_tbl

(* One cell per flow, so [record] costs one lookup whatever the
   horizon. [by_slice] is indexed by slice and doubles on demand. *)
type cell = { mutable by_slice : int array; mutable total : int }

type t = { slice : float; cells : cell Itbl.t; mutable max_slice : int }

let create ~slice =
  if slice <= 0.0 then invalid_arg "Slicer.create: slice";
  { slice; cells = Itbl.create 64; max_slice = -1 }

let slice_of t time = int_of_float (time /. t.slice)

let cell t flow =
  match Itbl.find t.cells flow with
  | c -> c
  | exception Not_found ->
      let c = { by_slice = [||]; total = 0 } in
      Itbl.replace t.cells flow c;
      c

let grow c s =
  let n = ref (Int.max 8 (Array.length c.by_slice)) in
  while !n <= s do
    n := 2 * !n
  done;
  let a = Array.make !n 0 in
  Array.blit c.by_slice 0 a 0 (Array.length c.by_slice);
  c.by_slice <- a

let record t ~flow ~time ~bytes =
  if not (time >= 0.0) then invalid_arg "Slicer.record: negative time";
  let s = slice_of t time in
  if s > t.max_slice then t.max_slice <- s;
  let c = cell t flow in
  if s >= Array.length c.by_slice then grow c s;
  c.by_slice.(s) <- c.by_slice.(s) + bytes;
  c.total <- c.total + bytes

let slice_count t = t.max_slice + 1

let bytes_in_slice t ~slice ~flow =
  match Itbl.find t.cells flow with
  | c ->
      if slice >= 0 && slice < Array.length c.by_slice then c.by_slice.(slice)
      else 0
  | exception Not_found -> 0

let flow_total t ~flow =
  match Itbl.find t.cells flow with c -> c.total | exception Not_found -> 0

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

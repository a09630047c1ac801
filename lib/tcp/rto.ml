(* All-float record: OCaml stores it flat (no boxed float fields), so
   every [observe] writes in place without allocating. "No sample yet"
   is encoded as [srtt = nan] instead of a separate boolean — a mixed
   float/bool record would box each float store. *)
type t = {
  min_rto : float;
  max_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
}

let create ~min_rto ~max_rto =
  if min_rto <= 0.0 || max_rto < min_rto then invalid_arg "Rto.create";
  { min_rto; max_rto; srtt = nan; rttvar = nan }

let alpha = 0.125

let beta = 0.25

let has_sample t = not (Float.is_nan t.srtt)

let observe t r =
  if r < 0.0 then invalid_arg "Rto.observe: negative sample";
  if has_sample t then begin
    t.rttvar <- ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (t.srtt -. r));
    t.srtt <- ((1.0 -. alpha) *. t.srtt) +. (alpha *. r)
  end
  else begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0
  end

let clamp t x = Float.min t.max_rto (Float.max t.min_rto x)

let timeout t =
  if not (has_sample t) then clamp t 1.0
  else clamp t (t.srtt +. (4.0 *. t.rttvar))

let srtt t = t.srtt

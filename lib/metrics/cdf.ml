type t = float array (* sorted *)

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty";
  let s = Array.copy xs in
  Array.sort compare s;
  s

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Cdf.quantile: q out of range";
  let len = Array.length t in
  let idx = int_of_float (ceil (q *. float_of_int len)) - 1 in
  t.(Int.max 0 (Int.min (len - 1) idx))

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* splitmix64 step: advance by the golden gamma then mix. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed64 = bits64 t in
  { state = seed64 }

let int t n =
  assert (n > 0);
  (* Take the top bits (better mixed) and reduce; bias is negligible for
     the n used here (n << 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let u = float_of_int bits *. (1.0 /. 9007199254740992.0) in
  u *. x

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let pareto t ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  let u = float t 1.0 in
  scale /. ((1.0 -. u) ** (1.0 /. shape))

let normal t ~mu ~sigma =
  let rec non_zero () =
    let u = float t 1.0 in
    if u > 0.0 then u else non_zero ()
  in
  let u1 = non_zero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

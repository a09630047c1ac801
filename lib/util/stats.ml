let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else sum xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) xs;
    !acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 100.0 then invalid_arg "Stats.percentile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = q /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let s = sum xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p10 : float;
  median : float;
  p90 : float;
  max : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let min, max = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min;
    p10 = percentile xs 10.0;
    median = median xs;
    p90 = percentile xs 90.0;
    max;
  }

let log_bucket ~base ~first x =
  if x < first then 0
  else begin
    let i = int_of_float (floor (log (x /. first) /. log base)) in
    Stdlib.max 0 i
  end

let bucket_bounds ~base ~first i =
  let lo = first *. (base ** float_of_int i) in
  (lo, lo *. base)

type t = { labels : string array; matrix : float array array }

let create ~labels ~matrix =
  let n = Array.length labels in
  if Array.length matrix <> n then
    invalid_arg "Markov.create: matrix/labels size mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Markov.create: not square";
      let sum = ref 0.0 in
      Array.iter
        (fun x ->
          if x < -1e-12 then invalid_arg "Markov.create: negative entry";
          sum := !sum +. x)
        row;
      if Float.abs (!sum -. 1.0) > 1e-9 then
        invalid_arg
          (Printf.sprintf "Markov.create: row %d (%s) sums to %.12f" i
             labels.(i) !sum))
    matrix;
  (* Renormalize exactly so long products stay stochastic. *)
  let matrix =
    Array.map
      (fun row ->
        let s = Array.fold_left ( +. ) 0.0 row in
        Array.map (fun x -> Float.max 0.0 (x /. s)) row)
      matrix
  in
  { labels; matrix }

let size t = Array.length t.labels

let labels t = t.labels

let index t name =
  let found = ref (-1) in
  Array.iteri (fun i l -> if l = name then found := i) t.labels;
  if !found < 0 then raise Not_found else !found

let probability t i j = t.matrix.(i).(j)

let step t dist =
  let n = size t in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let di = dist.(i) in
    if di > 0.0 then begin
      let row = t.matrix.(i) in
      for j = 0 to n - 1 do
        out.(j) <- out.(j) +. (di *. row.(j))
      done
    end
  done;
  out

let l1_distance a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  !acc

let stationary_power t =
  let max_iter = 100_000 and tol = 1e-12 in
  let n = size t in
  let dist = ref (Array.make n (1.0 /. float_of_int n)) in
  let continue = ref true in
  let iter = ref 0 in
  while !continue && !iter < max_iter do
    let next = step t !dist in
    if l1_distance next !dist < tol then continue := false;
    dist := next;
    incr iter
  done;
  !dist

(* Gauss-Jordan elimination with partial pivoting on the augmented
   [n x (n+1)] system [a], in place: afterwards row [i]'s solution is
   [a.(i).(n) /. a.(i).(i)]. A pivot below 1e-14 means the system is
   singular, reported as [singular]. *)
let eliminate a ~singular =
  let n = Array.length a in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    if Float.abs a.(col).(col) < 1e-14 then invalid_arg singular;
    for r = 0 to n - 1 do
      if r <> col then begin
        let f = a.(r).(col) /. a.(col).(col) in
        if f <> 0.0 then
          for c = col to n do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done
      end
    done
  done

let stationary_exact t =
  (* Solve x (P - I) = 0 with the normalization Σx = 1: transpose to
     (P^T - I) x = 0, replace the last equation by Σx = 1. *)
  let n = size t in
  let a = Array.make_matrix n (n + 1) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.(i).(j) <- t.matrix.(j).(i) -. (if i = j then 1.0 else 0.0)
    done
  done;
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.0
  done;
  a.(n - 1).(n) <- 1.0;
  eliminate a ~singular:"Markov.stationary_exact: singular system";
  let x = Array.init n (fun i -> a.(i).(n) /. a.(i).(i)) in
  (* Clean tiny negatives from roundoff and renormalize. *)
  let x = Array.map (fun v -> Float.max 0.0 v) x in
  let s = Array.fold_left ( +. ) 0.0 x in
  Array.map (fun v -> v /. s) x

let hitting_times t ~targets =
  if targets = [] then invalid_arg "Markov.hitting_times: no targets";
  let n = size t in
  let is_target = Array.make n false in
  List.iter (fun i -> is_target.(i) <- true) targets;
  (* Unknowns: h_i for non-target states; h = 1 + Q h where Q is the
     transition matrix restricted to non-target states. *)
  let idx = Array.make n (-1) in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if not is_target.(i) then begin
      idx.(i) <- !m;
      incr m
    end
  done;
  let m = !m in
  let a = Array.make_matrix m (m + 1) 0.0 in
  for i = 0 to n - 1 do
    if not is_target.(i) then begin
      let r = idx.(i) in
      a.(r).(m) <- 1.0;
      a.(r).(r) <- a.(r).(r) +. 1.0;
      for j = 0 to n - 1 do
        if not is_target.(j) then
          a.(r).(idx.(j)) <- a.(r).(idx.(j)) -. t.matrix.(i).(j)
      done
    end
  done;
  eliminate a
    ~singular:"Markov.hitting_times: target unreachable from some state";
  Array.init n (fun i ->
      if is_target.(i) then 0.0 else a.(idx.(i)).(m) /. a.(idx.(i)).(idx.(i)))

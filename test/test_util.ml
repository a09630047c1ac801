(* Tests for taq_util: PRNG determinism and distributions, statistics,
   EWMA, table rendering, the deque and the int-keyed table. *)

open Taq_util

let check_float = Alcotest.(check (float 1e-9))

let check_close msg ~tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance
      actual

(* --- Prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds differ" 0 !same

let test_prng_int_range () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v
  done

let test_prng_int_covers () =
  let t = Prng.create ~seed:9 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int t 8) <- true
  done;
  Array.iteri
    (fun i b -> if not b then Alcotest.failf "value %d never drawn" i)
    seen

let test_prng_float_range () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %g" v
  done

let test_prng_uniform_mean () =
  let t = Prng.create ~seed:11 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform t ~lo:2.0 ~hi:4.0
  done;
  check_close "uniform mean" ~tolerance:0.02 3.0 (!acc /. float_of_int n)

let test_prng_bernoulli () =
  let t = Prng.create ~seed:13 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli t ~p:0.3 then incr hits
  done;
  check_close "bernoulli 0.3" ~tolerance:0.01
    (float_of_int !hits /. float_of_int n)
    0.3

let test_prng_bernoulli_edges () =
  let t = Prng.create ~seed:5 in
  Alcotest.(check bool) "p=0" false (Prng.bernoulli t ~p:0.0);
  Alcotest.(check bool) "p=1" true (Prng.bernoulli t ~p:1.0);
  Alcotest.(check bool) "p<0" false (Prng.bernoulli t ~p:(-0.5));
  Alcotest.(check bool) "p>1" true (Prng.bernoulli t ~p:1.5)

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:17 in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential t ~mean:0.5
  done;
  check_close "exp mean" ~tolerance:0.01 0.5 (!acc /. float_of_int n)

let test_prng_pareto_min () =
  let t = Prng.create ~seed:19 in
  for _ = 1 to 10_000 do
    let v = Prng.pareto t ~shape:1.2 ~scale:3.0 in
    if v < 3.0 then Alcotest.failf "pareto below scale: %g" v
  done

let test_prng_normal_moments () =
  (* The normal draw is the log of a lognormal one. *)
  let t = Prng.create ~seed:23 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> log (Prng.lognormal t ~mu:5.0 ~sigma:2.0)) in
  let s = Stats.summarize xs in
  check_close "normal mean" ~tolerance:0.03 5.0 s.Stats.mean;
  check_close "normal sd" ~tolerance:0.03 2.0 s.Stats.stddev

let test_prng_split_independent () =
  let root = Prng.create ~seed:31 in
  let a = Prng.split root in
  let b = Prng.split root in
  (* Streams from distinct splits should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_mean_empty () =
  Alcotest.(check bool) "mean of empty is nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_variance () =
  check_float "stddev" (sqrt 1.25)
    (Stats.summarize [| 1.; 2.; 3.; 4. |]).Stats.stddev

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7.; 2. |] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p50" 3. (Stats.percentile xs 50.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "p25 interpolates" 2. (Stats.percentile xs 25.)

let test_stats_percentile_unsorted () =
  check_float "median of unsorted" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |])

let test_stats_jain_equal () =
  check_float "equal shares" 1.0 (Stats.jain_index [| 2.; 2.; 2.; 2. |])

let test_stats_jain_single_hog () =
  check_float "one hog" 0.25 (Stats.jain_index [| 4.; 0.; 0.; 0. |])

let test_stats_jain_zero () =
  check_float "all zero" 1.0 (Stats.jain_index [| 0.; 0. |])

let test_stats_jain_bounds () =
  let t = Prng.create ~seed:43 in
  for _ = 1 to 100 do
    let xs = Array.init 10 (fun _ -> Prng.float t 100.0) in
    let j = Stats.jain_index xs in
    if j < 0.1 -. 1e-9 || j > 1.0 +. 1e-9 then
      Alcotest.failf "jain out of [1/n,1]: %g" j
  done

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  check_float "median" 3. s.Stats.median;
  check_float "min" 1. s.Stats.min;
  check_float "max" 5. s.Stats.max

let test_stats_log_bucket () =
  Alcotest.(check int) "below first" 0 (Stats.log_bucket ~base:10. ~first:100. 5.);
  Alcotest.(check int) "first bucket" 0
    (Stats.log_bucket ~base:10. ~first:100. 150.);
  Alcotest.(check int) "second bucket" 1
    (Stats.log_bucket ~base:10. ~first:100. 1500.);
  let lo, hi = Stats.bucket_bounds ~base:10. ~first:100. 1 in
  check_float "bounds lo" 1000. lo;
  check_float "bounds hi" 10000. hi

(* --- Ewma ------------------------------------------------------------- *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "uninitialized" false (Ewma.is_initialized e);
  Ewma.update e 10.0;
  check_float "first sample is the value" 10.0 (Ewma.value e)

let test_ewma_smoothing () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.update e 10.0;
  Ewma.update e 20.0;
  check_float "0.5 smoothing" 15.0 (Ewma.value e)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.2 in
  for _ = 1 to 200 do
    Ewma.update e 7.0
  done;
  check_close "converges to constant" ~tolerance:1e-6 7.0 (Ewma.value e)

let test_ewma_bad_alpha () =
  Alcotest.check_raises "alpha 0 rejected" (Invalid_argument "Ewma.create: alpha")
    (fun () -> ignore (Ewma.create ~alpha:0.0))

(* --- Table ------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create ~columns:[ "a"; "bbb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.addf t [ 3.5; 4.25 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* Rows print in insertion order. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count (header + rule + 2 rows + trailing)" 5
    (List.length lines)

let test_table_arity_checked () =
  let t = Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

(* --- Deque ------------------------------------------------------------ *)

let test_deque_fifo () =
  let d = Deque.create () in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_back d 3;
  Alcotest.(check (option int)) "front" (Some 1) (Deque.pop_front d);
  Alcotest.(check (option int)) "front" (Some 2) (Deque.pop_front d);
  Alcotest.(check int) "length" 1 (Deque.length d)

let test_deque_pop_back () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "back" (Some 3) (Deque.pop_back d);
  Alcotest.(check (option int)) "front unaffected" (Some 1) (Deque.pop_front d)

let test_deque_empty () =
  let d : int Deque.t = Deque.create () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  Alcotest.(check (option int)) "pop front" None (Deque.pop_front d);
  Alcotest.(check (option int)) "pop back" None (Deque.pop_back d);
  Alcotest.(check (option int)) "peek front" None (Deque.peek_front d)

let test_deque_peek () =
  let d = Deque.create () in
  Deque.push_back d 7;
  Deque.push_back d 8;
  Alcotest.(check (option int)) "peek front" (Some 7) (Deque.peek_front d);
  Alcotest.(check int) "peek does not remove" 2 (Deque.length d)

let test_deque_grows () =
  let d = Deque.create () in
  for i = 1 to 1000 do
    Deque.push_back d i
  done;
  Alcotest.(check int) "all kept" 1000 (Deque.length d);
  for i = 1 to 1000 do
    Alcotest.(check (option int)) "order preserved" (Some i) (Deque.pop_front d)
  done

let test_deque_wraparound () =
  (* Interleave pushes and pops so the ring's head travels. *)
  let d = Deque.create () in
  for round = 0 to 99 do
    Deque.push_back d (2 * round);
    Deque.push_back d ((2 * round) + 1);
    ignore (Deque.pop_front d)
  done;
  Alcotest.(check int) "net growth" 100 (Deque.length d);
  (* Remaining elements are 100..199 in order. *)
  let expected = ref 100 in
  Deque.iter
    (fun x ->
      Alcotest.(check int) "iter order" !expected x;
      incr expected)
    d

let test_deque_iter_front_to_back () =
  let d = Deque.create () in
  List.iter (Deque.push_back d) [ "a"; "b"; "c" ];
  let seen = ref [] in
  Deque.iter (fun x -> seen := x :: !seen) d;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !seen)

let prop_deque_behaves_like_list =
  (* Model-based: a deque driven by random push/pop operations agrees
     with a reference list implementation. *)
  QCheck.Test.make ~name:"deque agrees with list model" ~count:300
    QCheck.(list (pair (int_range 0 3) small_int))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, x) ->
          match op with
          | 0 ->
              Deque.push_back d x;
              model := !model @ [ x ];
              true
          | 1 -> (
              let got = Deque.pop_front d in
              match !model with
              | [] -> got = None
              | h :: rest ->
                  model := rest;
                  got = Some h)
          | 2 -> (
              let got = Deque.pop_back d in
              match List.rev !model with
              | [] -> got = None
              | last :: rest_rev ->
                  model := List.rev rest_rev;
                  got = Some last)
          | _ ->
              (* In-place removal of the newest element of x's residue
                 class mod 3; the rest keep their order. *)
              let matches y = y mod 3 = x mod 3 in
              let got = Deque.remove_last matches d in
              let rec drop_last = function
                | [] -> (None, [])
                | y :: rest -> (
                    match drop_last rest with
                    | (Some _ as found), rest' -> (found, y :: rest')
                    | None, _ when matches y -> (Some y, rest)
                    | None, _ -> (None, y :: rest))
              in
              let expected, rest = drop_last !model in
              model := rest;
              got = expected)
        ops
      && Deque.length d = List.length !model)

(* --- Int_tbl ---------------------------------------------------------- *)

(* One operation of the model test, applied to an [Int_tbl] and to a
   [Stdlib.Hashtbl]. [Run (k, n)] binds the [n] keys from [k] up, and
   [Remove_run] unbinds them: enough to grow the table several times and
   to empty it again. *)
type tbl_op =
  | Replace of int * int
  | Run of int * int
  | Remove of int
  | Remove_run of int * int
  | Find of int
  | Find_opt of int
  | Mem of int
  | Length
  | Reset
  | Fold
  | Iter
  | Filter_map of int

let show_tbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Run (k, n) -> Printf.sprintf "run %d %d" k n
  | Remove k -> Printf.sprintf "remove %d" k
  | Remove_run (k, n) -> Printf.sprintf "remove_run %d %d" k n
  | Find k -> Printf.sprintf "find %d" k
  | Find_opt k -> Printf.sprintf "find_opt %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Length -> "length"
  | Reset -> "reset"
  | Fold -> "fold"
  | Iter -> "iter"
  | Filter_map p -> Printf.sprintf "filter_map %d" p

(* Keys that share low bits or sit at the array's ends: negatives
   (home at the last slots), [-flow - 2] pool keys, runs of neighbours,
   keys equal modulo every capacity up to 1024 (on both sides of a
   multiple, so their run wraps past the array's end), packed
   [(slice lsl 22) lor flow] keys, and the extreme ints. *)
let tbl_key =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-40) 40);
        (2, map (fun f -> -f - 2) (int_range 0 300));
        (3, map2 (fun m d -> (m * 1024) + d) (int_range (-6) 6)
              (int_range (-2) 1));
        (2, map2 (fun s f -> (s lsl 22) lor f) (int_range 0 40)
              (int_range 0 3));
        (1, oneofl [ min_int; min_int + 1; max_int - 1; max_int ]);
        (1, int);
      ])

let tbl_op =
  QCheck.Gen.(
    frequency
      [
        (16, map2 (fun k v -> Replace (k, v)) tbl_key small_nat);
        (2, map2 (fun k n -> Run (k, n)) tbl_key (int_range 1 300));
        (8, map (fun k -> Remove k) tbl_key);
        (2, map2 (fun k n -> Remove_run (k, n)) tbl_key (int_range 1 300));
        (6, map (fun k -> Find k) tbl_key);
        (3, map (fun k -> Find_opt k) tbl_key);
        (3, map (fun k -> Mem k) tbl_key);
        (1, return Length);
        (1, return Reset);
        (1, return Fold);
        (1, return Iter);
        (2, map (fun p -> Filter_map p) (int_range 0 3));
      ])

(* Every operation must agree with the model, and [filter_map_inplace]
   must show [f] each binding exactly once, including one that a
   removal shifts back into a slot the scan has passed. *)
let prop_int_tbl_vs_hashtbl =
  QCheck.Test.make ~name:"int_tbl agrees with Hashtbl" ~count:300
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "create %d; %s" n
           (String.concat "; " (List.map show_tbl_op ops)))
       QCheck.Gen.(pair (int_range 0 300) (list_size (int_range 1 150) tbl_op)))
    (fun (n, ops) ->
      let t = Int_tbl.create n and m = Hashtbl.create 16 in
      let sorted l = List.sort compare l in
      let model () = sorted (Hashtbl.fold (fun k v l -> (k, v) :: l) m []) in
      let got () = sorted (Int_tbl.fold (fun k v l -> (k, v) :: l) t []) in
      let find_exn k =
        match Int_tbl.find t k with v -> Some v | exception Not_found -> None
      in
      let step = function
        | Replace (k, v) ->
            Int_tbl.replace t k v;
            Hashtbl.replace m k v;
            true
        | Run (k, n) ->
            for i = 0 to n - 1 do
              Int_tbl.replace t (k + i) i;
              Hashtbl.replace m (k + i) i
            done;
            true
        | Remove k ->
            Int_tbl.remove t k;
            Hashtbl.remove m k;
            true
        | Remove_run (k, n) ->
            for i = 0 to n - 1 do
              Int_tbl.remove t (k + i);
              Hashtbl.remove m (k + i)
            done;
            true
        | Find k -> find_exn k = Hashtbl.find_opt m k
        | Find_opt k -> Int_tbl.find_opt t k = Hashtbl.find_opt m k
        | Mem k -> Int_tbl.mem t k = Hashtbl.mem m k
        | Length -> Int_tbl.length t = Hashtbl.length m
        | Reset ->
            Int_tbl.reset t;
            Hashtbl.reset m;
            Int_tbl.length t = 0
        | Fold -> got () = model ()
        | Iter ->
            let seen = ref [] in
            Int_tbl.iter (fun k v -> seen := (k, v) :: !seen) t;
            sorted !seen = model ()
        | Filter_map p ->
            let f k v = if (k + v + p) land 3 = 0 then None else Some (v + p) in
            let before = List.map fst (model ()) in
            let visited = ref [] in
            Int_tbl.filter_map_inplace
              (fun k v ->
                visited := k :: !visited;
                f k v)
              t;
            Hashtbl.filter_map_inplace f m;
            sorted !visited = before
      in
      List.for_all
        (fun op -> step op && Int_tbl.length t = Hashtbl.length m)
        ops
      && got () = model ())

(* A removal in the middle of a run shifts the rest of the run back,
   into the slot just scanned: [filter_map_inplace] must still show [f]
   the shifted keys, once each. In a table of 8 slots, 7, 15 and 23 all
   have home slot 7 and fill slots 7, 0 and 1, a run that wraps; 1, 9
   and 17 fill slots 1 to 3 around it. *)
let test_int_tbl_filter_shifted () =
  List.iter
    (fun (keys, drop) ->
      let t = Int_tbl.create 8 in
      List.iter (fun k -> Int_tbl.replace t k k) keys;
      let visited = ref [] in
      Int_tbl.filter_map_inplace
        (fun k v ->
          visited := k :: !visited;
          if List.mem k drop then None else Some v)
        t;
      let kept = List.filter (fun k -> not (List.mem k drop)) keys in
      Alcotest.(check (list int))
        "each key seen once" (List.sort compare keys)
        (List.sort compare !visited);
      Alcotest.(check (list int))
        "kept" (List.sort compare kept)
        (List.sort compare (Int_tbl.fold (fun k _ l -> k :: l) t []));
      List.iter
        (fun k -> Alcotest.(check bool) "found" true (Int_tbl.find t k = k))
        kept)
    [
      ([ 7; 15; 23 ], [ 7 ]);
      ([ 7; 15; 23 ], [ 15 ]);
      ([ 7; 15; 23 ], [ 7; 15; 23 ]);
      ([ 1; 9; 17 ], [ 1 ]);
      ([ 1; 9; 17 ], [ 1; 9 ]);
    ]

(* Lookups and in-place updates run on every packet: [find] and [mem]
   of present and absent keys and a [replace] of a present key
   allocate nothing. *)
let test_int_tbl_no_alloc () =
  let t = Int_tbl.create 8 in
  for k = -300 to 300 do
    Int_tbl.replace t (3 * k) (ref k)
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for k = -300 to 300 do
    let r = Int_tbl.find t (3 * k) in
    if Int_tbl.mem t (3 * k) && not (Int_tbl.mem t ((3 * k) + 1)) then
      incr hits;
    Int_tbl.replace t (3 * k) r
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every key found" 601 !hits;
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* A removed value must not stay reachable from the table (the filler
   rule): after 10^4 distinct values are bound and removed, the table
   holds no more than an emptied table of the same capacity whose
   values are immediate, plus the one filler value. *)
let test_int_tbl_removed_unreachable () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let n = 10_000 in
  let boxed = Int_tbl.create 8 and flat = Int_tbl.create 8 in
  for k = 0 to n - 1 do
    Int_tbl.replace boxed k (Bytes.create 64);
    Int_tbl.replace flat k k
  done;
  for k = 0 to n - 1 do
    Int_tbl.remove boxed k;
    Int_tbl.remove flat k
  done;
  Alcotest.(check int) "empty" 0 (Int_tbl.length boxed);
  let extra = words boxed - words flat and one = words (Bytes.create 64) in
  if extra < 0 || extra > one then
    Alcotest.failf
      "emptied table holds %d words more than an empty one (bound %d)" extra
      one

(* In OCaml 5.1, [Array.make] of more than 256 words with a young value
   empties the minor heap first. Growth past 256 slots, with young
   values, must not: 2 000 young values and the small arrays fit in
   the minor heap many times over, so no collection is due. *)
let test_int_tbl_growth_no_minor_gc () =
  let t = Int_tbl.create 8 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for k = 0 to 1_999 do
    Int_tbl.replace t k (ref k)
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "size" 2_000 (Int_tbl.length t);
  Alcotest.(check int) "minor collections" 0 (after - before)

(* --- qcheck properties ------------------------------------------------ *)

let prop_jain_scale_invariant =
  QCheck.Test.make ~name:"jain index is scale invariant" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.0 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let scaled = Array.map (fun x -> x *. 3.7) a in
      let ja = Stats.jain_index a and js = Stats.jain_index scaled in
      Float.abs (ja -. js) < 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in q" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.percentile a 10.0 <= Stats.percentile a 50.0 +. 1e-9
      && Stats.percentile a 50.0 <= Stats.percentile a 90.0 +. 1e-9)

let prop_log_bucket_contains =
  QCheck.Test.make ~name:"log_bucket bounds contain the value" ~count:500
    QCheck.(float_range 100.0 1e8)
    (fun x ->
      let i = Stats.log_bucket ~base:10.0 ~first:100.0 x in
      let lo, hi = Stats.bucket_bounds ~base:10.0 ~first:100.0 i in
      (* Floating point rounding at bucket edges is tolerated. *)
      x >= lo *. 0.999 && x <= hi *. 1.001)

let () =
  let qsuite =
    List.map (QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_util"))
      [
        prop_jain_scale_invariant;
        prop_percentile_monotone;
        prop_log_bucket_contains;
        prop_int_tbl_vs_hashtbl;
      ]
  in
  Alcotest.run "taq_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int covers" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli;
          Alcotest.test_case "bernoulli edges" `Quick test_prng_bernoulli_edges;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "pareto min" `Quick test_prng_pareto_min;
          Alcotest.test_case "normal moments" `Slow test_prng_normal_moments;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted;
          Alcotest.test_case "jain equal" `Quick test_stats_jain_equal;
          Alcotest.test_case "jain hog" `Quick test_stats_jain_single_hog;
          Alcotest.test_case "jain zero" `Quick test_stats_jain_zero;
          Alcotest.test_case "jain bounds" `Quick test_stats_jain_bounds;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "log bucket" `Quick test_stats_log_bucket;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "smoothing" `Quick test_ewma_smoothing;
          Alcotest.test_case "converges" `Quick test_ewma_converges;
          Alcotest.test_case "bad alpha" `Quick test_ewma_bad_alpha;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "arity" `Quick test_table_arity_checked;
        ] );
      ( "deque",
        [
          Alcotest.test_case "fifo" `Quick test_deque_fifo;
          Alcotest.test_case "pop back" `Quick test_deque_pop_back;
          Alcotest.test_case "empty" `Quick test_deque_empty;
          Alcotest.test_case "peek" `Quick test_deque_peek;
          Alcotest.test_case "grows" `Quick test_deque_grows;
          Alcotest.test_case "wraparound" `Quick test_deque_wraparound;
          Alcotest.test_case "iter" `Quick test_deque_iter_front_to_back;
        ] );
      ( "int_tbl",
        [
          Alcotest.test_case "filter_map sees shifted keys" `Quick test_int_tbl_filter_shifted;
          Alcotest.test_case "lookups allocate nothing" `Quick test_int_tbl_no_alloc;
          Alcotest.test_case "removed values unreachable" `Quick test_int_tbl_removed_unreachable;
          Alcotest.test_case "growth forces no minor gc" `Quick test_int_tbl_growth_no_minor_gc;
        ] );
      ( "properties",
        qsuite @ [ QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ~file:"test_util") prop_deque_behaves_like_list ] );
    ]

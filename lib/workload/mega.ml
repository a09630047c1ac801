module Prng = Taq_util.Prng

type flow = { id : int; rtt : float; pkt_bytes : int }

(* Per-id stream derivation: fold the id into the seed through the
   splitmix golden-ratio increment, then let Prng.create's seed
   scrambler do the rest. Pure in (seed, id). *)
let derive seed id =
  let z = Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int id) 0x9E3779B97F4A7C15L) in
  Prng.create ~seed:(Int64.to_int z)

(* Small-packet regime: sizes skewed to the tiny end. *)
let pkt_sizes = [| 40; 64; 128; 256; 512 |]
let pkt_cum_weights = [| 0.30; 0.55; 0.75; 0.90; 1.00 |]

let draw_pkt g =
  let u = Prng.float g 1.0 in
  let rec find i =
    if i = Array.length pkt_cum_weights - 1 || u < pkt_cum_weights.(i) then
      pkt_sizes.(i)
    else find (i + 1)
  in
  find 0

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let flow_of_id ~seed ~base_rtt id =
  let g = derive seed id in
  let rtt =
    clamp 0.005 2.0 (Prng.lognormal g ~mu:(Float.log base_rtt) ~sigma:0.35)
  in
  let pkt_bytes = draw_pkt g in
  { id; rtt; pkt_bytes }

type shard = { index : int; n_shards : int; total : int }

let shard ~index ~n_shards ~total =
  if n_shards <= 0 || index < 0 || index >= n_shards || total < 0 then
    invalid_arg
      (Printf.sprintf "Mega.shard: index=%d n_shards=%d total=%d" index
         n_shards total);
  { index; n_shards; total }

let shard_range s =
  let base = s.total / s.n_shards and rem = s.total mod s.n_shards in
  (* The first [rem] shards take one extra flow each. *)
  let lo = (s.index * base) + min s.index rem in
  let hi = lo + base + (if s.index < rem then 1 else 0) in
  (lo, hi)

let fold ~seed ~base_rtt s ~init ~f =
  let lo, hi = shard_range s in
  let acc = ref init in
  for id = lo to hi - 1 do
    acc := f !acc (flow_of_id ~seed ~base_rtt id)
  done;
  !acc

type summary = {
  n : int;
  mean_rtt : float;
  mean_pkt_bytes : float;
  min_rtt : float;
  max_rtt : float;
}

let empty =
  { n = 0; mean_rtt = 0.0; mean_pkt_bytes = 0.0; min_rtt = infinity; max_rtt = 0.0 }

let merge a b =
  if a.n = 0 then b
  else if b.n = 0 then a
  else
    let n = a.n + b.n in
    let wa = float_of_int a.n /. float_of_int n
    and wb = float_of_int b.n /. float_of_int n in
    {
      n;
      mean_rtt = (wa *. a.mean_rtt) +. (wb *. b.mean_rtt);
      mean_pkt_bytes = (wa *. a.mean_pkt_bytes) +. (wb *. b.mean_pkt_bytes);
      min_rtt = Float.min a.min_rtt b.min_rtt;
      max_rtt = Float.max a.max_rtt b.max_rtt;
    }

let summarize ~seed ~base_rtt s =
  (* Running (not post-hoc) means: the fold carries five floats no
     matter how many flows stream past. *)
  fold ~seed ~base_rtt s ~init:empty ~f:(fun acc fl ->
      let n = acc.n + 1 in
      let k = 1.0 /. float_of_int n in
      {
        n;
        mean_rtt = acc.mean_rtt +. (k *. (fl.rtt -. acc.mean_rtt));
        mean_pkt_bytes =
          acc.mean_pkt_bytes
          +. (k *. (float_of_int fl.pkt_bytes -. acc.mean_pkt_bytes));
        min_rtt = Float.min acc.min_rtt fl.rtt;
        max_rtt = Float.max acc.max_rtt fl.rtt;
      })

let summary_to_string s =
  Printf.sprintf "n=%d,rtt=%.3f,pkt=%.1f" s.n s.mean_rtt s.mean_pkt_bytes

(* Checkpoint wire form: hex floats ("%h") round-trip every finite
   float bit-exactly, which is what lets a mega run merge shard
   summaries served from checkpoints byte-identically to a fresh run. *)
let summary_to_wire s =
  Printf.sprintf "%d %h %h %h %h" s.n s.mean_rtt s.mean_pkt_bytes s.min_rtt
    s.max_rtt

let summary_of_wire w =
  match
    Scanf.sscanf w "%d %h %h %h %h%!"
      (fun n mean_rtt mean_pkt_bytes min_rtt max_rtt ->
        { n; mean_rtt; mean_pkt_bytes; min_rtt; max_rtt })
  with
  | s -> Some s
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

type t = {
  p : float;
  wmax : int;
  chain : Markov.t;
  mutable stationary : float array option;
}

(* State indexing: 0 = b1, 1 = R1, 2 = b2, 3 = R2, 4 = b3+, 5 = R3,
   then Sn at index n + 4 for n = 2..wmax. *)
let idx_b1 = 0

let idx_r1 = 1

let idx_b2 = 2

let idx_r2 = 3

let idx_b3 = 4

let idx_r3 = 5

let idx_s n = n + 4

let validate ~wmax ~p =
  if p < 0.0 || p >= 0.5 then
    invalid_arg "Full_model.create: p must be in [0, 0.5)";
  if wmax < 4 then invalid_arg "Full_model.create: wmax must be >= 4"

let build_labels wmax =
  let fixed = [| "b1"; "R1"; "b2"; "R2"; "b3+"; "R3" |] in
  Array.init (wmax + 5) (fun i ->
      if i < 6 then fixed.(i) else Printf.sprintf "S%d" (i - 4))

(* Expected wait (epochs) in the aggregated >= 3-backoffs stage:
   E = sum_{j>=3} (2^j - 1) p^{j-3} (1-p) = 8(1-p)/(1-2p) - 1. *)
let stage3_expected_wait ~p = (8.0 *. (1.0 -. p) /. (1.0 -. (2.0 *. p))) -. 1.0

let build_matrix ~wmax ~p =
  let n_states = wmax + 5 in
  let m = Array.make_matrix n_states n_states 0.0 in
  let q = 1.0 -. p in
  (* Stage 1: deterministic single-epoch wait. *)
  m.(idx_b1).(idx_r1) <- 1.0;
  m.(idx_r1).(idx_s 2) <- q;
  m.(idx_r1).(idx_b2) <- p;
  (* Stage 2: geometric wait with mean 3. *)
  m.(idx_b2).(idx_b2) <- 2.0 /. 3.0;
  m.(idx_b2).(idx_r2) <- 1.0 /. 3.0;
  m.(idx_r2).(idx_s 2) <- q;
  m.(idx_r2).(idx_b3) <- p;
  (* Stage 3+: geometric wait with the aggregated-tail mean. *)
  let e3 = stage3_expected_wait ~p in
  m.(idx_b3).(idx_b3) <- 1.0 -. (1.0 /. e3);
  m.(idx_b3).(idx_r3) <- 1.0 /. e3;
  m.(idx_r3).(idx_s 2) <- q;
  m.(idx_r3).(idx_b3) <- p;
  (* Window states: identical structure to the partial model, but all
     timeouts enter stage 1. *)
  for w = 2 to wmax do
    let up = (1.0 -. p) ** float_of_int w in
    let fast =
      if w < 4 then 0.0
      else
        float_of_int w *. p
        *. ((1.0 -. p) ** float_of_int (w - 1))
        *. (1.0 -. p)
    in
    let rto = 1.0 -. up -. fast in
    let up_target = if w = wmax then idx_s wmax else idx_s (w + 1) in
    m.(idx_s w).(up_target) <- m.(idx_s w).(up_target) +. up;
    if fast > 0.0 then
      m.(idx_s w).(idx_s (w / 2)) <- m.(idx_s w).(idx_s (w / 2)) +. fast;
    m.(idx_s w).(idx_b1) <- m.(idx_s w).(idx_b1) +. rto
  done;
  m

let create ?(wmax = 6) ~p () =
  validate ~wmax ~p;
  let chain =
    Markov.create ~labels:(build_labels wmax) ~matrix:(build_matrix ~wmax ~p)
  in
  { p; wmax; chain; stationary = None }

let chain t = t.chain

let stationary t =
  match t.stationary with
  | Some d -> d
  | None ->
      let d = Markov.stationary_exact t.chain in
      t.stationary <- Some d;
      d

let sent_distribution t =
  let d = stationary t in
  let out = Array.make (t.wmax + 1) 0.0 in
  out.(0) <- d.(idx_b1) +. d.(idx_b2) +. d.(idx_b3);
  out.(1) <- d.(idx_r1) +. d.(idx_r2) +. d.(idx_r3);
  for w = 2 to t.wmax do
    out.(w) <- d.(idx_s w)
  done;
  out

let timeout_mass t =
  let d = stationary t in
  d.(idx_b1) +. d.(idx_r1) +. d.(idx_b2) +. d.(idx_r2) +. d.(idx_b3)
  +. d.(idx_r3)

let silence_mass t =
  let d = stationary t in
  d.(idx_b1) +. d.(idx_b2) +. d.(idx_b3)

let backoff_stage_mass t =
  let d = stationary t in
  [|
    d.(idx_b1) +. d.(idx_r1);
    d.(idx_b2) +. d.(idx_r2);
    d.(idx_b3) +. d.(idx_r3);
  |]

let state_labels t = Markov.labels t.chain

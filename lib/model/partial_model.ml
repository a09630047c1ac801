type t = {
  p : float;
  wmax : int;
  chain : Markov.t;
  mutable stationary : float array option;
}

(* State indexing: 0 = b*, 1 = b0, 2 = S1, and Sn at index n+1 for
   n = 2..wmax. *)
let idx_bstar = 0

let idx_b0 = 1

let idx_s1 = 2

let idx_s n = n + 1

let validate ~wmax ~p =
  if p < 0.0 || p >= 0.5 then
    invalid_arg "Partial_model.create: p must be in [0, 0.5)";
  if wmax < 4 then invalid_arg "Partial_model.create: wmax must be >= 4"

let build_labels wmax =
  Array.init (wmax + 2) (fun i ->
      if i = idx_bstar then "b*"
      else if i = idx_b0 then "b0"
      else Printf.sprintf "S%d" (i - 1))

let up_probability ~p n = (1.0 -. p) ** float_of_int n

let fast_retx_probability ~p n =
  if n < 4 then 0.0
  else
    float_of_int n *. p
    *. ((1.0 -. p) ** float_of_int (n - 1))
    *. (1.0 -. p)

let build_matrix ~wmax ~p =
  let n_states = wmax + 2 in
  let m = Array.make_matrix n_states n_states 0.0 in
  (* b*: stay idle w.p. 2p, move to the retransmit state w.p. 1-2p. *)
  m.(idx_bstar).(idx_bstar) <- 2.0 *. p;
  m.(idx_bstar).(idx_s1) <- 1.0 -. (2.0 *. p);
  (* b0: the one silent epoch of a simple timeout. *)
  m.(idx_b0).(idx_s1) <- 1.0;
  (* S1: retransmit succeeds -> S2, fails -> repetitive timeout. *)
  m.(idx_s1).(idx_s 2) <- 1.0 -. p;
  m.(idx_s1).(idx_bstar) <- p;
  (* Window states. *)
  for w = 2 to wmax do
    let up = up_probability ~p w in
    let fast = fast_retx_probability ~p w in
    let rto = 1.0 -. up -. fast in
    let up_target = if w = wmax then idx_s wmax else idx_s (w + 1) in
    m.(idx_s w).(up_target) <- m.(idx_s w).(up_target) +. up;
    if fast > 0.0 then m.(idx_s w).(idx_s (w / 2)) <- m.(idx_s w).(idx_s (w / 2)) +. fast;
    let rto_target = if w >= 4 then idx_b0 else idx_bstar in
    m.(idx_s w).(rto_target) <- m.(idx_s w).(rto_target) +. rto
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
  out.(0) <- d.(idx_bstar) +. d.(idx_b0);
  out.(1) <- d.(idx_s1);
  for w = 2 to t.wmax do
    out.(w) <- d.(idx_s w)
  done;
  out

let timeout_mass t =
  let d = stationary t in
  d.(idx_bstar) +. d.(idx_b0) +. d.(idx_s1)

let silence_mass t =
  let d = stationary t in
  d.(idx_bstar) +. d.(idx_b0)

let expected_idle_epochs ~p =
  if p < 0.0 || p >= 0.5 then
    invalid_arg "Partial_model.expected_idle_epochs: p must be in [0, 0.5)";
  1.0 /. (1.0 -. (2.0 *. p))

let state_labels t = Markov.labels t.chain

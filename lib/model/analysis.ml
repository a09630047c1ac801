type sweep_point = {
  p : float;
  sent : float array;
  timeout_mass : float;
  silence_mass : float;
  goodput_pkts_per_epoch : float;
}

let goodput_pkts_per_epoch ~sent ~p =
  let acc = ref 0.0 in
  Array.iteri
    (fun k pi -> acc := !acc +. (float_of_int k *. pi *. (1.0 -. p)))
    sent;
  !acc

let point ?(wmax = 6) ?(full = false) p =
  if full then begin
    let m = Full_model.create ~wmax ~p () in
    let sent = Full_model.sent_distribution m in
    {
      p;
      sent;
      timeout_mass = Full_model.timeout_mass m;
      silence_mass = Full_model.silence_mass m;
      goodput_pkts_per_epoch = goodput_pkts_per_epoch ~sent ~p;
    }
  end
  else begin
    let m = Partial_model.create ~wmax ~p () in
    let sent = Partial_model.sent_distribution m in
    {
      p;
      sent;
      timeout_mass = Partial_model.timeout_mass m;
      silence_mass = Partial_model.silence_mass m;
      goodput_pkts_per_epoch = goodput_pkts_per_epoch ~sent ~p;
    }
  end

let sweep ?(wmax = 6) ?(full = false) ~p_lo ~p_hi ~steps () =
  if steps < 2 then invalid_arg "Analysis.sweep: steps >= 2";
  List.init steps (fun i ->
      let p =
        p_lo +. ((p_hi -. p_lo) *. float_of_int i /. float_of_int (steps - 1))
      in
      point ~wmax ~full p)

let tipping_point ?(wmax = 6) () =
  let threshold = 0.5 and resolution = 1000 in
  let rec search i =
    if i > resolution then 0.5
    else begin
      let p = 0.4999 *. float_of_int i /. float_of_int resolution in
      let m = Partial_model.create ~wmax ~p () in
      if Partial_model.timeout_mass m >= threshold then p else search (i + 1)
    end
  in
  search 0

let epochs_to_first_timeout ?(wmax = 6) ~p ~from_window () =
  if from_window < 2 || from_window > wmax then
    invalid_arg "Analysis.epochs_to_first_timeout: from_window";
  if p <= 0.0 then
    invalid_arg "Analysis.epochs_to_first_timeout: p must be positive";
  let m = Partial_model.create ~wmax ~p () in
  let chain = Partial_model.chain m in
  let targets =
    [ Markov.index chain "b*"; Markov.index chain "b0"; Markov.index chain "S1" ]
  in
  let h = Markov.hitting_times chain ~targets in
  h.(Markov.index chain (Printf.sprintf "S%d" from_window))

let steepest_increase ?(wmax = 6) () =
  let resolution = 200 in
  let best_p = ref 0.0 and best_slope = ref neg_infinity in
  let mass p = Partial_model.timeout_mass (Partial_model.create ~wmax ~p ()) in
  for i = 1 to resolution - 1 do
    let p = 0.45 *. float_of_int i /. float_of_int resolution in
    let dp = 0.45 /. float_of_int resolution in
    let slope = (mass (p +. dp) -. mass (p -. dp)) /. (2.0 *. dp) in
    if slope > !best_slope then begin
      best_slope := slope;
      best_p := p
    end
  done;
  !best_p

type params = {
  body_mu : float;
  body_sigma : float;
  tail_weight : float;
  tail_shape : float;
  tail_scale : float;
  min_bytes : int;
  max_bytes : int;
}

let default =
  {
    body_mu = log 8_000.0;
    body_sigma = 1.5;
    tail_weight = 0.05;
    tail_shape = 1.2;
    tail_scale = 100_000.0;
    min_bytes = 100;
    max_bytes = 100_000_000;
  }

let clamp p x =
  Stdlib.max p.min_bytes (Stdlib.min p.max_bytes (int_of_float x))

let sample ?(params = default) prng =
  let x =
    if Taq_util.Prng.bernoulli prng ~p:params.tail_weight then
      Taq_util.Prng.pareto prng ~shape:params.tail_shape
        ~scale:params.tail_scale
    else
      Taq_util.Prng.lognormal prng ~mu:params.body_mu ~sigma:params.body_sigma
  in
  clamp params x

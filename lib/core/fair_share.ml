type model = Fair_queuing | Proportional_rtt

let per_flow ~model ~capacity_bps ~active_flows ~flow_epoch ~mean_epoch =
  if capacity_bps < 0.0 then invalid_arg "Fair_share.per_flow: capacity";
  let n = Stdlib.max 1 active_flows in
  let base = capacity_bps /. float_of_int n in
  match model with
  | Fair_queuing -> base
  | Proportional_rtt ->
      if flow_epoch <= 0.0 || mean_epoch <= 0.0 then base
      else base *. (mean_epoch /. flow_epoch)

let is_below ~rate_bps ~fair_bps = rate_bps < fair_bps

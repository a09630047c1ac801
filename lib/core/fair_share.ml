let per_flow ~capacity_bps ~active_flows =
  if capacity_bps < 0.0 then invalid_arg "Fair_share.per_flow: capacity";
  capacity_bps /. float_of_int (Stdlib.max 1 active_flows)

let is_below ~rate_bps ~fair_bps = rate_bps < fair_bps

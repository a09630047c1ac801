(** Resilience-monitor parameters: what [--resil] configures.

    The parameters pin down the SLO vocabulary: how often the monitor
    samples ([period]), how many consecutive in-tolerance samples count
    as a sustained return ([sustain]), and the per-metric tolerance
    bands around the pre-fault baseline. All of it is deterministic
    configuration — two runs with equal parameters and seeds produce
    byte-identical resilience reports at any [--jobs] count. *)

type params = {
  period : float;  (** sampling window, seconds *)
  sustain : int;
      (** consecutive in-tolerance samples required for recovery *)
  eps_jain : float;  (** absolute Jain-index tolerance *)
  eps_drop : float;  (** absolute drop-rate tolerance *)
  eps_occ_frac : float;
      (** occupancy tolerance as a fraction of the baseline occupancy *)
  eps_occ_floor : float;
      (** occupancy tolerance floor, packets (shallow baselines would
          otherwise demand sub-packet precision) *)
}

val default : params
(** period 0.5 s, sustain 3, eps-jain 0.05, eps-drop 0.02,
    eps-occ-frac 0.5, eps-occ-floor 3 pkts. See DESIGN.md "Resilience
    SLOs" for why. *)

val params_to_string : params -> string
(** Canonical rendering (every field, fixed order) — usable in sweep
    task keys: equal parameter sets render equally. *)

val params_of_spec : string -> (params, string) result
(** Parse a [--resil] SPEC: comma-separated [key=value] overrides of
    {!default} (keys: period, sustain, eps-jain, eps-drop,
    eps-occ-frac, eps-occ-floor). The empty string is {!default}. *)

type epoch_source =
  | Estimated of {
      default_epoch : float;
      min_epoch : float;
      max_epoch : float;
      alpha : float;
    }
  | Oracle of float

type admission = { pthresh : float }

type t = {
  capacity_pkts : int;
  capacity_bps : float;
  recovery_share : float;
  overpenalize_drops : int;
  tick_interval : float;
  epoch_source : epoch_source;
  admission : admission option;
  flow_idle_timeout : float;
  max_tracked_flows : int;
  guard : bool;
}

let default ~capacity_pkts ~capacity_bps =
  if capacity_pkts < 1 then invalid_arg "Taq_config.default: capacity_pkts";
  if capacity_bps <= 0.0 then invalid_arg "Taq_config.default: capacity_bps";
  {
    capacity_pkts;
    capacity_bps;
    recovery_share = 0.25;
    (* §4.2's cumulative threshold. Flows already below their fair
       share are additionally protected after any single recent drop
       (§4.1) — see Flow_tracker.classify_data. *)
    overpenalize_drops = 2;
    tick_interval = 0.05;
    (* The 1 s cap keeps silence periods from polluting the burst-based
       estimate: epochs are RTTs, and RTTs beyond a second are outside
       the regimes TAQ serves. Ablations show the capped estimator
       matches an RTT oracle. *)
    epoch_source =
      Estimated
        { default_epoch = 0.2; min_epoch = 0.02; max_epoch = 1.0; alpha = 0.25 };
    admission = None;
    flow_idle_timeout = 120.0;
    (* Large enough that non-adversarial workloads never hit the cap;
       a real deployment sizes this to its memory budget. *)
    max_tracked_flows = 65536;
    guard = false;
  }

let with_admission ~capacity_pkts ~capacity_bps =
  {
    (default ~capacity_pkts ~capacity_bps) with
    admission = Some { pthresh = 0.1 };
  }

let with_guard ~max_tracked_flows t =
  if max_tracked_flows < 1 then
    invalid_arg "Taq_config.with_guard: max_tracked_flows";
  { t with max_tracked_flows; guard = true }

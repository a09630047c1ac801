(* Reference task-key formats, frozen verbatim from the inline key
   code of the sweep and fault-drill drivers. Existing result dirs are
   keyed by exactly these strings, and every point's seed derives from
   them, so Task_key must print them byte for byte:
   test_fault's differential property holds it to that. *)

module Common = Taq_experiments.Common
module Fault_plan = Taq_fault.Plan

let guard_suffix guard =
  match guard with
  | Some cap -> Printf.sprintf "/guard=%d" cap
  | None -> ""

let sweep ~queue ~capacity ~fair_share ~rtt ~duration ~buffer_rtts ~rep
    ~fault_plan ~guard ~resil =
  let fault_suffix =
    match fault_plan with
    | Some plan when not (Fault_plan.is_empty plan) ->
        Printf.sprintf "/faults=%s" (Fault_plan.to_string plan)
    | Some _ | None -> ""
  in
  let resil_suffix =
    if resil then
      "/resil=period=0.5,sustain=3,eps-jain=0.05,eps-drop=0.02,\
       eps-occ-frac=0.5,eps-occ-floor=3"
    else ""
  in
  Printf.sprintf
    "sweep/v1/queue=%s/cap=%.0f/fs=%.0f/rtt=%g/dur=%g/buf=%g/rep=%d%s%s%s"
    queue capacity fair_share rtt duration buffer_rtts rep fault_suffix
    (guard_suffix guard) resil_suffix

let matrix ~disc ~tcp ~workload ~fault ~guard =
  let cell_fault_suffix = if fault = "none" then "" else "/fault=" ^ fault in
  Printf.sprintf "matrix/v1/disc=%s/tcp=%s/wl=%s%s%s" disc tcp workload
    cell_fault_suffix (guard_suffix guard)

let faults ~scenario ~queue =
  Printf.sprintf "faults/v1/%s/queue=%s" scenario (Common.queue_name queue)

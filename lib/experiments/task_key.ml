let spec_suffix ?guard_cap (spec : Run_spec.t) =
  String.concat ""
    [
      (match spec.faults with
      | Some plan when not (Taq_fault.Plan.is_empty plan) ->
          "/faults=" ^ Taq_fault.Plan.to_string plan
      | Some _ | None -> "");
      (match guard_cap with
      | Some cap -> Printf.sprintf "/guard=%d" cap
      | None -> "");
      (if spec.resil then "/resil=" ^ Taq_resil.Monitor.slo else "");
    ]

let sweep ~queue ~capacity ~fair_share ~rtt ~duration ~buffer_rtts ~rep
    ?guard_cap spec =
  Printf.sprintf "sweep/v1/queue=%s/cap=%.0f/fs=%.0f/rtt=%g/dur=%g/buf=%g/rep=%d%s"
    queue capacity fair_share rtt duration buffer_rtts rep
    (spec_suffix ?guard_cap spec)

let matrix ~disc ~tcp ~workload ~fault ?guard_cap () =
  Printf.sprintf "matrix/v1/disc=%s/tcp=%s/wl=%s%s%s" disc tcp workload
    (if fault = "none" then "" else "/fault=" ^ fault)
    (spec_suffix ?guard_cap Run_spec.off)

let faults ~scenario ~queue = Printf.sprintf "faults/v1/%s/queue=%s" scenario queue

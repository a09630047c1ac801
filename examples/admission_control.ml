(* Admission control under heavy contention: when the loss rate at the
   bottleneck crosses the model's tipping point (~10%), TAQ stops
   admitting new flow pools so the admitted ones can make progress;
   rejected users retry and are guaranteed admission within Twait, one
   pool at a time.

   This example drives the queue into that regime and shows the
   controller's decisions plus the effect on download predictability.

     dune exec examples/admission_control.exe *)

module Sim = Taq_engine.Sim
module Web_session = Taq_workload.Web_session
module Taq_config = Taq_core.Taq_config
module Taq_disc = Taq_core.Taq_disc
module Admission = Taq_core.Admission

let capacity_bps = 600_000.0

let clients = 40

let duration = 300.0

let rtt = 0.2

let () =
  let sim = Sim.create () in
  let buffer_pkts =
    Taq_queueing.Droptail.capacity_for_rtt ~capacity_bps ~rtt
      ~pkt_bytes:Taq_tcp.Tcp_config.packet_bytes
  in
  let config = Taq_config.with_admission ~capacity_pkts:buffer_pkts ~capacity_bps in
  let taq = Taq_disc.create ~sim ~config () in
  let net =
    Taq_net.Dumbbell.create ~sim ~capacity_bps ~disc:(Taq_disc.disc taq) ()
  in
  (* Clients retry their SYNs every 3 s until admitted, as the paper's
     emulated users do. *)
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true ~syn_retry_doubling:false () in
  let prng = Taq_util.Prng.create ~seed:11 in
  let download_times = ref [] in
  for client = 0 to clients - 1 do
    let session =
      Web_session.create ~net ~tcp ~pool:client ~rtt ~max_conns:4
        ~on_fetch_done:(fun f ->
          if not (Float.is_nan f.Web_session.finished_at) then
            download_times :=
              (f.Web_session.finished_at -. f.Web_session.started_at)
              :: !download_times)
        ()
    in
    for _ = 1 to 200 do
      Web_session.request session ~size:15_000
    done;
    let at = Taq_util.Prng.float prng 20.0 in
    Sim.schedule sim ~at (fun () -> Web_session.start session)
  done;
  (* Observe the admission controller as the run progresses. *)
  let rec report () =
    (match Taq_disc.admission taq with
    | Some a ->
        Printf.printf
          "t=%5.0fs  loss-ewma=%.3f  admitted-pools=%d  waiting=%d\n"
          (Sim.now sim) (Admission.loss_rate a) (Admission.admitted_count a)
          (Admission.waiting_count a)
    | None -> ());
    if Sim.now sim +. 30.0 <= duration then
      Sim.schedule_after sim ~delay:30.0 report
  in
  Sim.schedule sim ~at:10.0 report;
  Sim.run ~until:duration sim;
  let st = Taq_disc.stats taq in
  let times = Array.of_list !download_times in
  Printf.printf "\nafter %.0f s:\n" duration;
  Printf.printf "  SYNs rejected by admission control: %d\n"
    st.Taq_disc.admission_rejected;
  Printf.printf "  packets dropped at the queue:       %d\n" st.Taq_disc.dropped;
  Printf.printf "  completed downloads:                %d\n" (Array.length times);
  if Array.length times > 0 then
    Printf.printf "  download time median / p90 / max:   %.1f / %.1f / %.1f s\n"
      (Taq_util.Stats.median times)
      (Taq_util.Stats.percentile times 90.0)
      (snd (Taq_util.Stats.min_max times))

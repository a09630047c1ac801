(* Web browsing under pathological sharing: a population of users, each
   with a browser holding a pool of up to 4 simultaneous connections,
   shares a 1 Mbps link. We measure what each user actually perceives —
   object download times and "hangs" (intervals where none of their
   connections receives a byte) — under droptail and under TAQ.

     dune exec examples/web_browsing.exe *)

module Sim = Taq_engine.Sim
module Web_session = Taq_workload.Web_session
module Hangs = Taq_metrics.Hangs

let capacity_bps = 1_000_000.0

let users = 80

let conns_per_user = 4

let rtt = 0.2

let duration = 240.0

let object_bytes = 15_000 (* a typical small web object *)

let run ~label ~make_disc =
  let sim = Sim.create () in
  let disc = make_disc sim in
  let net = Taq_net.Dumbbell.create ~sim ~capacity_bps ~disc () in
  let hangs = Hangs.create () in
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
  let prng = Taq_util.Prng.create ~seed:7 in
  let download_times = ref [] in
  for user = 0 to users - 1 do
    let session =
      Web_session.create ~net ~tcp ~pool:user ~rtt ~max_conns:conns_per_user
        ~hangs
        ~on_fetch_done:(fun f ->
          if not (Float.is_nan f.Web_session.finished_at) then
            download_times :=
              (f.Web_session.finished_at -. f.Web_session.started_at)
              :: !download_times)
        ()
    in
    (* An endless backlog of objects: the browser always has something
       to fetch, so silence is a genuine hang. *)
    for _ = 1 to 500 do
      Web_session.request session ~size:object_bytes
    done;
    let at = Taq_util.Prng.float prng 10.0 in
    Sim.schedule sim ~at (fun () -> Web_session.start session)
  done;
  Sim.run ~until:duration sim;
  let pools = Array.init users Fun.id in
  let times = Array.of_list !download_times in
  Printf.printf "%s:\n" label;
  Printf.printf "  completed objects:      %d\n" (Array.length times);
  if Array.length times > 0 then begin
    Printf.printf "  median download:        %.1f s\n"
      (Taq_util.Stats.median times);
    Printf.printf "  p90 download:           %.1f s\n"
      (Taq_util.Stats.percentile times 90.0)
  end;
  Printf.printf "  users with a >20s hang: %.0f%%\n"
    (100.0 *. Hangs.fraction_with_hang hangs ~pools ~min_hang:20.0 ~until:duration);
  Printf.printf "  users with a >60s hang: %.0f%%\n\n"
    (100.0 *. Hangs.fraction_with_hang hangs ~pools ~min_hang:60.0 ~until:duration)

let () =
  let buffer_pkts =
    Taq_queueing.Droptail.capacity_for_rtt ~capacity_bps ~rtt
      ~pkt_bytes:Taq_tcp.Tcp_config.packet_bytes
  in
  run ~label:"droptail" ~make_disc:(fun _sim ->
      Taq_queueing.Droptail.create ~capacity_pkts:buffer_pkts);
  run ~label:"taq" ~make_disc:(fun sim ->
      let config =
        Taq_core.Taq_config.default ~capacity_pkts:buffer_pkts ~capacity_bps
      in
      Taq_core.Taq_disc.disc (Taq_core.Taq_disc.create ~sim ~config ()))

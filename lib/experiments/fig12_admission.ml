module Cdf = Taq_metrics.Cdf
module Sim = Taq_engine.Sim
module Web_session = Taq_workload.Web_session

type params = {
  capacity_bps : float;
  clients : int;
  max_conns : int;
  objects_per_page : int;
  think_mean : float;  (** pause between page loads *)
  rtt : float;
  duration : float;
  small_bucket : int * int;
  large_bucket : int * int;
  large_every : int;
  seed : int;
}

(* Sustained overload: clients browse in a closed loop (page, think,
   page ...), offering roughly twice the bottleneck capacity — the
   paper's peak-load replay regime, where pools churn and admission
   control has standing work to do. *)
let default =
  {
    capacity_bps = 1000e3;
    clients = 60;
    max_conns = 4;
    objects_per_page = 6;
    think_mean = 6.0;
    rtt = 0.2;
    duration = 900.0;
    small_bucket = (10_000, 20_000);
    large_bucket = (100_000, 110_000);
    large_every = 5;
    seed = 37;
  }

let quick = { default with clients = 40; think_mean = 6.0; duration = 400.0 }

type bucket_result = {
  queue : string;
  bucket : string;
  n : int;
  unfinished : int;
  cdf : Cdf.t option;
}

type queue_choice = Dt | Taq_ac

let run_queue p choice =
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps:p.capacity_bps ~rtt:p.rtt ~rtts:1.0
  in
  let queue, queue_name =
    match choice with
    | Dt -> (Common.Droptail, "droptail")
    | Taq_ac ->
        ( Common.Taq
            (Common.taq_config ~admission:true ~capacity_bps:p.capacity_bps
               ~buffer_pkts ()),
          "taq+ac" )
  in
  let env =
    Common.make_env ~queue ~capacity_bps:p.capacity_bps ~buffer_pkts
      ~seed:p.seed ()
  in
  let prng = Taq_util.Prng.create ~seed:p.seed in
  (* Admission control rejects SYNs; clients must retry, so the TCP
     config models the handshake. The admission wait is charged to the
     download (started_at is when the connection attempt began). *)
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true ~syn_retry_doubling:false () in
  let sessions = ref [] in
  let small_lo, small_hi = p.small_bucket and large_lo, large_hi = p.large_bucket in
  for client = 0 to p.clients - 1 do
    let client_prng = Taq_util.Prng.split prng in
    let outstanding = ref 0 in
    let session_ref = ref None in
    let rec next_page () =
      if Sim.now env.Common.sim < p.duration then begin
        let session = Option.get !session_ref in
        for k = 0 to p.objects_per_page - 1 do
          let lo, hi =
            if k mod p.large_every = p.large_every - 1 then (large_lo, large_hi)
            else (small_lo, small_hi)
          in
          incr outstanding;
          Web_session.request session
            ~size:(lo + Taq_util.Prng.int client_prng (Stdlib.max 1 (hi - lo)))
        done
      end
    and on_fetch_done _fetch =
      decr outstanding;
      if !outstanding = 0 then begin
        let think =
          Taq_util.Prng.exponential client_prng ~mean:p.think_mean
        in
        Sim.schedule_after env.Common.sim ~delay:think next_page
      end
    in
    let session =
      Web_session.create ~net:env.Common.net ~tcp ~pool:client ~rtt:p.rtt
        ~max_conns:p.max_conns ~on_fetch_done ()
    in
    session_ref := Some session;
    sessions := session :: !sessions;
    let at = Taq_util.Prng.float client_prng 30.0 in
    Sim.schedule env.Common.sim ~at (fun () ->
        Web_session.start session;
        next_page ())
  done;
  Common.run env ~until:p.duration;
  let in_bucket (lo, hi) size = size >= lo && size <= hi in
  let collect bucket_name bucket =
    let times = ref [] and unfinished = ref 0 in
    List.iter
      (fun session ->
        List.iter
          (fun f ->
            if in_bucket bucket f.Web_session.size then begin
              if Float.is_nan f.Web_session.finished_at then incr unfinished
              else if not (Float.is_nan f.Web_session.started_at) then
                times :=
                  (f.Web_session.finished_at -. f.Web_session.started_at)
                  :: !times
            end)
          (Web_session.fetches session))
      !sessions;
    let samples = Array.of_list !times in
    {
      queue = queue_name;
      bucket = bucket_name;
      n = Array.length samples;
      unfinished = !unfinished;
      cdf =
        (if Array.length samples = 0 then None else Some (Cdf.of_samples samples));
    }
  in
  [ collect "10-20KB" p.small_bucket; collect "100-110KB" p.large_bucket ]

let run p = run_queue p Dt @ run_queue p Taq_ac

let print results =
  let table =
    Taq_util.Table.create
      ~columns:
        [ "queue"; "bucket"; "n"; "unfinished"; "p10"; "median"; "p90"; "max" ]
  in
  List.iter
    (fun r ->
      let q v =
        match r.cdf with
        | None -> "-"
        | Some c -> Printf.sprintf "%.2f" (Cdf.quantile c v)
      in
      Taq_util.Table.add_row table
        [
          r.queue;
          r.bucket;
          string_of_int r.n;
          string_of_int r.unfinished;
          q 0.1;
          q 0.5;
          q 0.9;
          q 1.0;
        ])
    results;
  Taq_util.Table.print table;
  let find queue bucket =
    List.find_opt (fun r -> r.queue = queue && r.bucket = bucket) results
  in
  Taq_util.Out.newline ();
  List.iter
    (fun bucket ->
      match (find "droptail" bucket, find "taq+ac" bucket) with
      | Some { cdf = Some dt; _ }, Some { cdf = Some taq; _ } ->
          Taq_util.Out.printf
            "%s: median speedup %.2fx, worst-case speedup %.2fx\n" bucket
            (Cdf.quantile dt 0.5 /. Cdf.quantile taq 0.5)
            (Cdf.quantile dt 1.0 /. Cdf.quantile taq 1.0)
      | _ -> Taq_util.Out.printf "%s: insufficient completions for ratios\n" bucket)
    [ "10-20KB"; "100-110KB" ]

type params = {
  queue : Common.queue;
  fair_shares_pkts_per_rtt : float list;
  buffer_rtts : float list;
  duration : float;
  seeds : int list;
}

let capacity_bps = 1000e3
let rtt = 0.4

let default =
  {
    queue = Common.Droptail;
    fair_shares_pkts_per_rtt = [ 0.25; 0.5; 1.0; 1.25 ];
    buffer_rtts = [ 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 4.5; 5.0 ];
    duration = 300.0;
    seeds = [ 23; 24; 25 ];
  }

let quick =
  {
    default with
    fair_shares_pkts_per_rtt = [ 0.5; 1.25 ];
    buffer_rtts = [ 1.0; 2.0; 3.0; 4.0 ];
    duration = 200.0;
    seeds = [ 23; 24 ];
  }

type row = {
  fair_share_pkts : float;
  buffer_rtts : float;
  buffer_pkts : int;
  jain_short : float;
  max_queue_delay_s : float;
}

let run_one p ~fair_share_pkts ~buffer_rtts =
  (* fair share (pkts/RTT) = C·RTT / (8·pkt·N)  =>  N from the target. *)
  let pkts_per_rtt_total =
    capacity_bps *. rtt /. (8.0 *. float_of_int Common.pkt_bytes)
  in
  let flows =
    Stdlib.max 1 (int_of_float (pkts_per_rtt_total /. fair_share_pkts))
  in
  let buffer_pkts =
    Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:buffer_rtts
  in
  let run seed =
    snd
      (Long_point.run
         {
           queue = p.queue;
           capacity_bps;
           buffer_pkts;
           flows;
           tcp = Common.default_tcp;
           rtt;
           duration = p.duration;
           seed;
         })
  in
  {
    fair_share_pkts;
    buffer_rtts;
    buffer_pkts;
    (* Averaged over independent seeds: single runs are noisy at 20 s
       slices. *)
    jain_short = (Long_point.mean (List.map run p.seeds)).jain_short;
    max_queue_delay_s =
      float_of_int (buffer_pkts * Common.pkt_bytes * 8) /. capacity_bps;
  }

let run p =
  List.concat_map
    (fun fair_share_pkts ->
      List.map
        (fun buffer_rtts -> run_one p ~fair_share_pkts ~buffer_rtts)
        p.buffer_rtts)
    p.fair_shares_pkts_per_rtt

let print rows =
  let table =
    Taq_util.Table.create
      ~columns:
        [
          "fair_share_pkts_per_rtt";
          "buffer_rtts";
          "buffer_pkts";
          "jain_20s";
          "max_queue_delay_s";
        ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          Taq_util.Table.cell_float r.fair_share_pkts;
          Taq_util.Table.cell_float r.buffer_rtts;
          string_of_int r.buffer_pkts;
          Printf.sprintf "%.3f" r.jain_short;
          Printf.sprintf "%.2f" r.max_queue_delay_s;
        ])
    rows;
  Taq_util.Table.print table

let required_buffer rows ~target_jain =
  let shares =
    List.sort_uniq compare (List.map (fun r -> r.fair_share_pkts) rows)
  in
  List.map
    (fun share ->
      let candidates =
        rows
        |> List.filter (fun r ->
               r.fair_share_pkts = share && r.jain_short >= target_jain)
        |> List.map (fun r -> r.buffer_rtts)
        |> List.sort compare
      in
      (share, match candidates with [] -> None | b :: _ -> Some b))
    shares

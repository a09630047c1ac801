type params = {
  queues : Common.queue list;
  long_flows : int;
  short_flow_lengths : int list;
  warmup : float;
  spacing : float;
  timeout : float;
  repeats : int;  (* independent runs averaged per point *)
}

let capacity_bps = 1000e3
let rtt = 0.2
let buffer_pkts = Common.buffer_for_rtts ~capacity_bps ~rtt ~rtts:1.0
let seed = 29

let default =
  {
    queues = [ Common.taq_marker; Common.Droptail ];
    long_flows = 50;
    (* 32 short flows spanning 1..80 packets, like the figure's x axis. *)
    short_flow_lengths =
      List.init 32 (fun i -> Stdlib.max 1 (int_of_float (2.58 *. float_of_int (i + 1))));
    warmup = 60.0;
    spacing = 12.0;
    timeout = 120.0;
    repeats = 3;
  }

let quick =
  {
    default with
    short_flow_lengths = List.init 8 (fun i -> Stdlib.max 1 (10 * i));
    warmup = 40.0;
    spacing = 10.0;
    repeats = 1;
  }

type row = { queue : string; packets : int; download_time : float }

let run_one p queue ~seed =
  let env = Common.make_env ~queue ~capacity_bps ~buffer_pkts ~seed () in
  ignore (Common.spawn_long_flows env ~n:p.long_flows ~rtt ~rtt_jitter:0.1 ());
  (* Short flows need the SYN handshake: TAQ's NewFlow logic keys off
     seeing connections start. *)
  let tcp = Taq_tcp.Tcp_config.make ~use_syn:true () in
  let results = ref [] in
  List.iteri
    (fun i packets ->
      let at = p.warmup +. (float_of_int i *. p.spacing) in
      ignore
        (Common.spawn_finite_flow env ~tcp ~segments:packets ~rtt ~at
           ~on_complete:(fun finished ->
             results := (packets, finished -. at) :: !results)
           ()))
    p.short_flow_lengths;
  let last_start =
    p.warmup +. (float_of_int (List.length p.short_flow_lengths - 1) *. p.spacing)
  in
  Common.run env ~until:(last_start +. p.timeout);
  let completed = !results in
  List.map
    (fun packets ->
      let download_time =
        match List.assoc_opt packets completed with
        | Some dt -> dt
        | None -> nan
      in
      { queue = Common.queue_name queue; packets; download_time })
    p.short_flow_lengths

(* Average each flow length's download time over independent runs;
   an unfinished repeat (nan) poisons the mean into "unfinished",
   which is itself informative. *)
let run p =
  List.concat_map
    (fun queue ->
      let runs =
        List.init (Stdlib.max 1 p.repeats) (fun i ->
            run_one p queue ~seed:(seed + i))
      in
      match runs with
      | [] -> []
      | first :: _ ->
          List.mapi
            (fun idx row ->
              let samples =
                List.map (fun r -> (List.nth r idx).download_time) runs
              in
              {
                row with
                download_time = Taq_util.Stats.mean (Array.of_list samples);
              })
            first)
    p.queues

let print rows =
  let table =
    Taq_util.Table.create ~columns:[ "queue"; "packets"; "download_time_s" ]
  in
  List.iter
    (fun r ->
      Taq_util.Table.add_row table
        [
          r.queue;
          string_of_int r.packets;
          (if Float.is_nan r.download_time then "unfinished"
           else Printf.sprintf "%.2f" r.download_time);
        ])
    rows;
  Taq_util.Table.print table

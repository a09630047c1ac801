(* The benchmark's workloads, built only from the libraries' public
   constructors (no experiment-driver plumbing), so a refactor of
   lib/experiments cannot change what is measured. *)

module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Link = Taq_net.Link
module Dumbbell = Taq_net.Dumbbell
module Obs = Taq_obs.Obs
module Droptail = Taq_queueing.Droptail
module Observed = Taq_queueing.Observed
module Taq_config = Taq_core.Taq_config
module Taq_disc = Taq_core.Taq_disc
module Taq_queues = Taq_core.Taq_queues
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver
module Web_session = Taq_workload.Web_session
module Slicer = Taq_metrics.Slicer
module Flow_evolution = Taq_metrics.Flow_evolution
module Prng = Taq_util.Prng

let pkt_bytes = 500
let rtt = 0.2
let rtt_jitter = 0.1
let slice = 20.0
let evolution_window = 5.0

(* A long flow's "fetch" is each run of this many new segments (10 KB
   at 500 B), so long-flow workloads report completion times too. *)
let chunk_segments = 20

(* Web fetches requested in the last [fct_tail] seconds of the horizon
   (scaled with it) are left out: they could not have finished. An
   earlier fetch still unfinished at the horizon ranks after every
   finished one, valued at its age then. *)
let fct_tail = 150.0

type queue = Droptail | Taq | Taq_admission

type traffic = Long of int  (** flows *) | Web

type point = {
  label : string;
  seed : int;
  queue : queue;
  capacity_bps : float;
  traffic : traffic;
  horizon : float;
  tail : float;
  slices : int;  (** run-phase slices, each bracketed by the reference *)
}

type workload = {
  name : string;
  why : string;
  counters : bool;  (** obs counters on in the plain run *)
  points : seed:int -> scale:float -> point list;
}

let long_grid queue ~seeds ~slices ~seed ~scale =
  List.concat_map
    (fun s ->
      List.map
        (fun fair_share ->
          {
            label = Printf.sprintf "fs=%gk/seed=%d" (fair_share /. 1e3) s;
            seed = s;
            queue;
            capacity_bps = 1e6;
            traffic = Long (int_of_float (Float.round (1e6 /. fair_share)));
            horizon = 400.0 *. scale;
            tail = 0.0;
            slices;
          })
        [ 4e3; 10e3; 20e3; 40e3 ])
    (List.init seeds (fun i -> seed + i))

let workloads =
  [
    {
      name = "dt-long";
      why =
        "fig2/fig8 long-flow grid through droptail: engine, net and TCP \
         dominate, so a TAQ-core change must not move it";
      counters = false;
      points = long_grid Droptail ~seeds:4 ~slices:4;
    };
    {
      name = "taq-long";
      why =
        "the same grid through TAQ: steady-state classification and \
         push-out, core enqueue is most of the run";
      counters = false;
      points = long_grid Taq ~seeds:2 ~slices:16;
    };
    {
      name = "taq-long-obs";
      why =
        "taq-long with obs counters on everywhere, as --obs=counters runs: \
         prices observation";
      counters = true;
      points = long_grid Taq ~seeds:2 ~slices:16;
    };
    {
      name = "taq-web";
      why =
        "fig12 closed-loop browsing through TAQ with admission control: \
         tracker churn, ticks over many flows, admission";
      counters = false;
      points =
        (fun ~seed ~scale ->
          List.map
            (fun s ->
              {
                label = Printf.sprintf "web/seed=%d" s;
                seed = s;
                queue = Taq_admission;
                capacity_bps = 1e6;
                traffic = Web;
                horizon = 900.0 *. scale;
                tail = fct_tail *. scale;
                slices = 128;
              })
            [ seed ]);
    };
    {
      name = "dt-soak";
      why =
        "droptail over a 12000 s horizon: costs that grow with simulated \
         time, such as per-window metrics tables";
      counters = false;
      points =
        (fun ~seed ~scale ->
          [
            {
              label = Printf.sprintf "soak/seed=%d" seed;
              seed;
              queue = Droptail;
              capacity_bps = 600e3;
              traffic = Long 150;
              horizon = 12000.0 *. scale;
              tail = 0.0;
              slices = 128;
            };
          ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* A growable float buffer for completion-time samples. *)
type samples = { mutable data : float array; mutable len : int }

(* One point's completion times: finished fetches, and the ages at the
   horizon of unfinished ones. *)
type completions = { finished : samples; unfinished : samples }

let completions () =
  { finished = { data = [||]; len = 0 }; unfinished = { data = [||]; len = 0 } }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (Stdlib.max 1024 (2 * s.len)) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank quantile over the finished samples followed by the
   unfinished ones, which rank after every finished one. *)
let quantile c q =
  let finished = sorted c.finished and unfinished = sorted c.unfinished in
  let nf = Array.length finished in
  let n = nf + Array.length unfinished in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    let r = Stdlib.max 0 (Stdlib.min (n - 1) rank) in
    if r < nf then finished.(r) else unfinished.(r - nf)

let total s =
  let acc = ref 0.0 in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

(* Totals over the points of one pass (one child process). *)
type pass = {
  probe : Probe.t option;  (** present in a traced pass *)
  clock : Calib.t;
  mutable setup_s : float;  (** reference seconds *)
  mutable run_s : float;  (** reference seconds *)
  mutable run_raw_s : float;  (** host seconds *)
  mutable offered : int;
  mutable dropped : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable jain_sum : float;
  mutable utilization_sum : float;
  mutable ok : int;
  mutable fct_log_p50_sum : float;  (** over points *)
  mutable fct_log_p99_sum : float;
  mutable fct_n : int;
  mutable fct_unfinished : int;
  mutable events : int;
  mutable heap_max_depth : int;
  mutable transitions : int;
  mutable syns : int;
  mutable admission_rejected : int;
  mutable data : int;
  mutable retx : int;
  mutable observe_ns : int;
  mutable observes : int;
  mutable tick_ns : int;
  mutable ticks : int;
  mutable tick_flows : int;
  mutable live_tracker_ns : int;
  mutable points : (string * string * string option) list;
      (** label, digest, error; in reverse order *)
}

let new_pass ~traced =
  {
    probe = (if traced then Some (Probe.create ()) else None);
    clock = Calib.create ();
    setup_s = 0.0;
    run_s = 0.0;
    run_raw_s = 0.0;
    offered = 0;
    dropped = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
    jain_sum = 0.0;
    utilization_sum = 0.0;
    ok = 0;
    fct_log_p50_sum = 0.0;
    fct_log_p99_sum = 0.0;
    fct_n = 0;
    fct_unfinished = 0;
    events = 0;
    heap_max_depth = 0;
    transitions = 0;
    syns = 0;
    admission_rejected = 0;
    data = 0;
    retx = 0;
    observe_ns = 0;
    observes = 0;
    tick_ns = 0;
    ticks = 0;
    tick_flows = 0;
    live_tracker_ns = 0;
    points = [];
  }

(* The benchmark's metrics listener body [f x], timed in a traced pass.
   [f] is allocated once, so a plain pass allocates nothing here. *)
let timed probe ~uid ~flow f x =
  match probe with
  | None -> f x
  | Some probe ->
      Probe.enter probe ~uid;
      f x;
      ignore (Probe.leave probe Probe.Metrics ~uid ~flow)

(* [n] long-lived NewReno flows, RTTs drawn as the figure drivers draw
   them. Chunk completion times go to [fct] as segments arrive; the
   returned thunk gives the mean short-term Jain index. *)
let spawn_long ~probe ~sim ~net ~(fct : completions) ~n ~seed ~horizon =
  let prng = Prng.create ~seed in
  let slicer = Slicer.create ~slice in
  let evolution = Flow_evolution.create ~window:evolution_window in
  let tcp = Tcp_config.make ~use_syn:false () in
  let got = Array.make n 0 and chunk_start = Array.make n 0.0 in
  let flows =
    Array.init n (fun i ->
        let rtt_prop =
          Prng.uniform prng
            ~lo:(rtt *. (1.0 -. rtt_jitter))
            ~hi:(rtt *. (1.0 +. rtt_jitter))
        in
        let session =
          Tcp_session.create ~net ~config:tcp ~rtt_prop
            ~total_segments:max_int ()
        in
        let flow = Tcp_session.flow_id session in
        let record () =
          let time = Sim.now sim in
          Slicer.record slicer ~flow ~time ~bytes:pkt_bytes;
          Flow_evolution.note_activity evolution ~flow ~time
        in
        Tcp_receiver.on_segment (Tcp_session.receiver session) (fun _seq ->
            timed probe ~uid:(-1) ~flow record ();
            got.(i) <- got.(i) + 1;
            if got.(i) mod chunk_segments = 0 then begin
              let time = Sim.now sim in
              push fct.finished (time -. chunk_start.(i));
              chunk_start.(i) <- time
            end);
        Flow_evolution.note_start evolution ~flow ~time:0.0;
        Tcp_session.start session;
        flow)
  in
  fun () ->
    let last = int_of_float (horizon /. slice) - 1 in
    Slicer.mean_jain slicer ~flows ~first:1 ~last ()

(* Figure 12's client population: closed-loop page loads (six objects,
   every fifth one large) separated by exponential think times, up to
   [max_conns] connections per client, SYN retried at a constant
   interval. Short-term fairness is taken across clients, from the
   data bytes each receives through the bottleneck. *)
let spawn_web ~probe ~sim ~net ~(fct : completions) ~seed ~horizon ~tail =
  let clients = 60
  and max_conns = 4
  and objects_per_page = 6
  and large_every = 5
  and think_mean = 6.0 in
  let prng = Prng.create ~seed in
  let tcp = Tcp_config.make ~use_syn:true ~syn_retry_doubling:false () in
  let slicer = Slicer.create ~slice in
  let record (p : Packet.t) =
    Slicer.record slicer ~flow:p.pool ~time:(Sim.now sim) ~bytes:p.size
  in
  Link.on_deliver (Dumbbell.link net) (fun p ->
      if p.kind = Packet.Data then
        timed probe ~uid:p.uid ~flow:p.flow record p);
  let sessions =
    Array.init clients (fun client ->
        let client_prng = Prng.split prng in
        let outstanding = ref 0 in
        let session_ref = ref None in
        let rec next_page () =
          if Sim.now sim < horizon then
            let session = Option.get !session_ref in
            for k = 0 to objects_per_page - 1 do
              let lo, hi =
                if k mod large_every = large_every - 1 then (100_000, 110_000)
                else (10_000, 20_000)
              in
              incr outstanding;
              Web_session.request session
                ~size:(lo + Prng.int client_prng (hi - lo))
            done
        and on_fetch_done _ =
          decr outstanding;
          if !outstanding = 0 then
            ignore
              (Sim.schedule_after sim
                 ~delay:(Prng.exponential client_prng ~mean:think_mean)
                 next_page)
        in
        let session =
          Web_session.create ~net ~tcp ~pool:client ~rtt ~max_conns
            ~on_fetch_done ()
        in
        session_ref := Some session;
        let at = Prng.float client_prng 30.0 in
        ignore
          (Sim.schedule sim ~at (fun () ->
               Web_session.start session;
               next_page ()));
        session)
  in
  fun () ->
    Array.iter
      (fun session ->
        List.iter
          (fun (f : Web_session.fetch) ->
            if f.requested_at < horizon -. tail then
              if Float.is_nan f.finished_at then
                push fct.unfinished (horizon -. f.requested_at)
              else push fct.finished (f.finished_at -. f.started_at))
          (Web_session.fetches session))
      sessions;
    let last = int_of_float (horizon /. slice) - 1 in
    Slicer.mean_jain slicer ~flows:(Array.init clients Fun.id) ~first:1 ~last
      ()

let taq_summary taq =
  match taq with
  | None -> ""
  | Some taq ->
      let s = Taq_disc.stats taq in
      let by_class =
        List.sort compare
          (List.map
             (fun (c, n) ->
               Printf.sprintf "%s:%d" (Taq_queues.class_to_string c) n)
             s.drops_by_class)
      in
      Printf.sprintf " taq=%d/%d/%d/%d/%d [%s]" s.enqueued s.dropped
        s.admission_rejected s.forced_recovery_drops s.restarts
        (String.concat "," by_class)

type built = {
  sim : Sim.t;
  obs : Obs.t;
  net : Dumbbell.t;
  taq : Taq_disc.t option;
  replay : Replay.t option;
  fct : completions;
  results : unit -> float;  (** fills [fct], returns [jain_short] *)
}

(* A point's simulator, network and traffic. [counters] turns obs
   counters on for the simulator, link and discipline (wrapped in
   [Observed]); a traced pass additionally gives the simulator and link
   a private counters-on instance, times every layer boundary and
   records the disc input stream for the replay probe. *)
let build pass ~counters p =
  let traced = Option.is_some pass.probe in
  let obs = if counters || traced then Obs.create () else Obs.off in
  let disc_obs = if counters then obs else Obs.off in
  let sim = Sim.create ~obs () in
  let buffer_pkts =
    Droptail.capacity_for_rtt ~capacity_bps:p.capacity_bps ~rtt ~pkt_bytes
  in
  let config =
    match p.queue with
    | Taq_admission ->
        Taq_config.with_admission ~capacity_pkts:buffer_pkts
          ~capacity_bps:p.capacity_bps
    | Droptail | Taq ->
        Taq_config.default ~capacity_pkts:buffer_pkts
          ~capacity_bps:p.capacity_bps
  in
  let taq, disc =
    match p.queue with
    | Droptail -> (None, Droptail.create ~capacity_pkts:buffer_pkts)
    | Taq | Taq_admission ->
        let t = Taq_disc.create ~obs:disc_obs ~sim ~config () in
        (Some t, Taq_disc.disc t)
  in
  let disc = Observed.wrap ~obs:disc_obs disc in
  (* On a droptail point the replay prices what TAQ's tracking would
     cost on the same traffic; nothing live pays it. *)
  let replay = if traced then Some (Replay.create ~config) else None in
  let disc =
    match (pass.probe, replay) with
    | Some probe, Some r ->
        Probe.wrap_disc probe disc
          ~on_enqueue:(fun (pkt : Packet.t) drops ->
            (match pkt.kind with
            | Packet.Syn -> pass.syns <- pass.syns + 1
            | Packet.Data ->
                pass.data <- pass.data + 1;
                if pkt.retx then pass.retx <- pass.retx + 1
            | Packet.Ack | Packet.Syn_ack | Packet.Fin -> ());
            Replay.note_enqueue r ~now:(Sim.now sim) pkt drops)
          ~on_dequeue:(fun () -> Replay.note_dequeue r ~now:(Sim.now sim))
    | _ -> disc
  in
  let net = Dumbbell.create ~sim ~capacity_bps:p.capacity_bps ~disc () in
  Option.iter
    (fun probe ->
      let alloc = Dumbbell.packet_alloc net in
      Dumbbell.set_fwd_interceptor net
        (Some (Probe.intercept probe Probe.Rx alloc));
      Dumbbell.set_rev_interceptor net
        (Some (Probe.intercept probe Probe.Ack alloc)))
    pass.probe;
  let probe = pass.probe and fct = completions () in
  let results =
    match p.traffic with
    | Long n ->
        spawn_long ~probe ~sim ~net ~fct ~n ~seed:p.seed ~horizon:p.horizon
    | Web ->
        spawn_web ~probe ~sim ~net ~fct ~seed:p.seed
          ~horizon:p.horizon ~tail:p.tail
  in
  { sim; obs; net; taq; replay; fct; results }

(* Set-up takes well under a millisecond per point, so it is repeated
   and the median kept; the last build is the one that runs. *)
let setup_reps = 5

(* Build, run and check one point, adding its totals to [pass]. Raises
   [Failure] when an output check fails. Each point starts from a
   collected heap, so it does not inherit the previous point's garbage
   and its heap figures do not depend on what ran before it. *)
let run_point pass ~counters p =
  let traced = Option.is_some pass.probe in
  Gc.full_major ();
  let clock = pass.clock in
  let times = Array.make setup_reps 0 and last = ref None in
  for i = 0 to setup_reps - 1 do
    last := None;
    let t0 = Probe.now_ns () in
    last := Some (build pass ~counters p);
    times.(i) <- Probe.now_ns () - t0
  done;
  Array.sort compare times;
  let setup_s = Calib.seconds clock times.(setup_reps / 2) in
  let { sim; obs; net; taq; replay; fct; results } = Option.get !last in
  let replay_ns () =
    match replay with Some r -> r.Replay.replay_ns | None -> 0
  in
  let minor0 = Gc.minor_words () and calib0 = clock.Calib.words in
  let gc0 = Gc.quick_stat () in
  (* The run phase in [p.slices] slices of simulated time, each timed
     without the replay probe's flushes and bracketed by the reference. *)
  let run_s = ref 0.0 and run_raw_ns = ref 0 in
  let timed_slice f =
    let t0 = Probe.now_ns () and r0 = replay_ns () in
    let v = f () in
    let raw = Probe.now_ns () - t0 - (replay_ns () - r0) in
    run_raw_ns := !run_raw_ns + raw;
    run_s := !run_s +. Calib.seconds clock raw;
    v
  in
  for k = 1 to p.slices do
    timed_slice (fun () ->
        Sim.run
          ~until:(p.horizon *. float_of_int k /. float_of_int p.slices)
          sim)
  done;
  let jain = timed_slice results in
  let gc1 = Gc.quick_stat () in
  let minor_words =
    Gc.minor_words () -. minor0 -. (clock.Calib.words -. calib0)
  in
  let link = Dumbbell.link net in
  let s = Link.stats link in
  let queued = Link.queue_length link in
  let fct_p50 = quantile fct 0.5 and fct_p99 = quantile fct 0.99 in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf
            "%s offered=%d bytes=%d tx=%d dropped=%d bytes_tx=%d busy=%h \
             queued=%d%s jain=%h fct=%s unfinished=%s"
            p.label s.offered s.bytes_offered s.transmitted s.dropped
            s.bytes_transmitted s.busy_time queued (taq_summary taq) jain
            (Printf.sprintf "%d/%h" fct.finished.len (total fct.finished))
            (Printf.sprintf "%d/%h" fct.unfinished.len (total fct.unfinished))))
  in
  (* The transmitter holds at most one packet that is neither queued
     nor counted as transmitted. *)
  let in_flight = s.offered - s.transmitted - s.dropped - queued in
  if in_flight < 0 || in_flight > 1 then
    failwith
      (Printf.sprintf "link conservation: offered=%d tx=%d dropped=%d queued=%d"
         s.offered s.transmitted s.dropped queued);
  if not (jain >= 0.0 && jain <= 1.0) then
    failwith (Printf.sprintf "jain_short %g outside [0,1]" jain);
  if not (fct_p50 > 0.0) then failwith "no completion-time samples";
  if counters || traced then begin
    let snap = Obs.snapshot obs in
    pass.events <- pass.events + Obs.counter_value snap "sim.events_executed";
    pass.heap_max_depth <-
      Stdlib.max pass.heap_max_depth
        (Obs.gauge_value snap "sim.heap_max_depth");
    List.iter
      (fun (k, v) ->
        if String.starts_with ~prefix:"taq.transition." k then
          pass.transitions <- pass.transitions + v)
      snap.Obs.counters
  end;
  Option.iter
    (fun r ->
      Replay.flush r;
      (match taq with
      | Some taq ->
          let replayed = Replay.summary r r.Replay.tracker
          and live = Replay.summary r (Taq_disc.tracker taq) in
          if replayed <> live then
            failwith
              (Printf.sprintf "replay probe diverged: replayed %s, live %s"
                 replayed live);
          pass.live_tracker_ns <-
            pass.live_tracker_ns + Replay.enqueue_side_ns r;
          pass.admission_rejected <-
            pass.admission_rejected + (Taq_disc.stats taq).admission_rejected
      | None -> ());
      pass.observe_ns <- pass.observe_ns + r.Replay.observe_ns;
      pass.observes <- pass.observes + r.observes;
      pass.tick_ns <- pass.tick_ns + r.tick_enqueue_ns + r.tick_dequeue_ns;
      pass.ticks <- pass.ticks + r.ticks;
      pass.tick_flows <- pass.tick_flows + r.tick_flows)
    replay;
  pass.setup_s <- pass.setup_s +. setup_s;
  pass.run_s <- pass.run_s +. !run_s;
  pass.run_raw_s <- pass.run_raw_s +. (float_of_int !run_raw_ns /. 1e9);
  pass.offered <- pass.offered + s.offered;
  pass.dropped <- pass.dropped + s.dropped;
  pass.minor_words <- pass.minor_words +. minor_words;
  pass.promoted_words <-
    pass.promoted_words +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
  pass.major_collections <-
    pass.major_collections + gc1.Gc.major_collections
    - gc0.Gc.major_collections;
  pass.jain_sum <- pass.jain_sum +. jain;
  pass.fct_log_p50_sum <- pass.fct_log_p50_sum +. log fct_p50;
  pass.fct_log_p99_sum <- pass.fct_log_p99_sum +. log fct_p99;
  pass.fct_n <- pass.fct_n + fct.finished.len + fct.unfinished.len;
  pass.fct_unfinished <- pass.fct_unfinished + fct.unfinished.len;
  pass.utilization_sum <- pass.utilization_sum +. Link.utilization link;
  pass.ok <- pass.ok + 1;
  pass.points <- (p.label, digest, None) :: pass.points

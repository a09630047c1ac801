(* The replay probe: a point's disc input stream, recorded at the disc
   wrapper and fed into a fresh Flow_tracker, prices TAQ's flow
   tracking apart from the rest of its enqueue. The tracker sees the
   calls the live discipline makes, at the recorded simulated times:

   - a tick whenever recorded time - last tick >= tick_interval, on
     every enqueue (before the arrival is observed) and dequeue;
   - observe_syn or observe_data on each SYN or data arrival;
   - observe_drop on every returned victim that is not a SYN
     (admission and NewFlow-cap rejections never reach the tracker).

   The stream is replayed in chunks, so memory stays bounded on long
   horizons; the replay's wall time is kept apart from the run's. *)

module Packet = Taq_net.Packet
module Flow_tracker = Taq_core.Flow_tracker
module Taq_config = Taq_core.Taq_config

let chunk = 16_384

let op_tick_enqueue = 0
let op_tick_dequeue = 1
let op_syn = 2
let op_data = 3
let op_drop = 4

type t = {
  tick_interval : float;
  mutable last_tick : float;
  clock : float array;  (* the replayed tracker's [now] *)
  tracker : Flow_tracker.t;
  scratch : Packet.t;
  time : float array;
  op : int array;
  flow : int array;
  pool : int array;
  seq : int array;
  size : int array;
  mutable n : int;
  mutable max_flow : int;  (* highest flow id in the stream *)
  mutable observe_ns : int;
  mutable observes : int;
  mutable tick_enqueue_ns : int;
  mutable tick_dequeue_ns : int;
  mutable ticks : int;
  mutable tick_flows : int;  (* tracked flows summed over ticks *)
  mutable replay_ns : int;
}

let create ~(config : Taq_config.t) =
  let clock = [| 0.0 |] in
  {
    tick_interval = config.Taq_config.tick_interval;
    last_tick = 0.0;
    clock;
    tracker =
      Flow_tracker.create ~obs:Taq_obs.Obs.off ~config
        ~now:(fun () -> clock.(0))
        ();
    scratch =
      {
        Packet.uid = 0;
        flow = 0;
        pool = -1;
        kind = Packet.Data;
        seq = 0;
        size = 0;
        retx = false;
        sacks = [];
        sent_at = 0.0;
      };
    time = Array.make chunk 0.0;
    op = Array.make chunk 0;
    flow = Array.make chunk 0;
    pool = Array.make chunk 0;
    seq = Array.make chunk 0;
    size = Array.make chunk 0;
    n = 0;
    max_flow = 0;
    observe_ns = 0;
    observes = 0;
    tick_enqueue_ns = 0;
    tick_dequeue_ns = 0;
    ticks = 0;
    tick_flows = 0;
    replay_ns = 0;
  }

let flush t =
  let t0 = Probe.now_ns () in
  let batch_start = ref 0 and batch = ref 0 in
  let close_batch () =
    if !batch > 0 then begin
      t.observe_ns <- t.observe_ns + Probe.now_ns () - !batch_start;
      t.observes <- t.observes + !batch;
      batch := 0
    end
  in
  let p = t.scratch in
  for i = 0 to t.n - 1 do
    t.clock.(0) <- t.time.(i);
    let op = t.op.(i) in
    if op = op_tick_enqueue || op = op_tick_dequeue then begin
      close_batch ();
      t.tick_flows <- t.tick_flows + Flow_tracker.tracked_flow_count t.tracker;
      let s = Probe.now_ns () in
      Flow_tracker.tick t.tracker;
      let d = Probe.now_ns () - s in
      if op = op_tick_enqueue then t.tick_enqueue_ns <- t.tick_enqueue_ns + d
      else t.tick_dequeue_ns <- t.tick_dequeue_ns + d;
      t.ticks <- t.ticks + 1
    end
    else begin
      if !batch = 0 then batch_start := Probe.now_ns ();
      incr batch;
      if op = op_syn then
        Flow_tracker.observe_syn t.tracker ~flow:t.flow.(i) ~pool:t.pool.(i)
      else begin
        p.flow <- t.flow.(i);
        p.pool <- t.pool.(i);
        p.seq <- t.seq.(i);
        p.size <- t.size.(i);
        if op = op_data then ignore (Flow_tracker.observe_data t.tracker p)
        else Flow_tracker.observe_drop t.tracker p
      end
    end
  done;
  close_batch ();
  t.n <- 0;
  t.replay_ns <- t.replay_ns + Probe.now_ns () - t0

let push t ~now op (p : Packet.t) =
  if t.n = chunk then flush t;
  let i = t.n in
  t.time.(i) <- now;
  t.op.(i) <- op;
  t.flow.(i) <- p.flow;
  if p.flow > t.max_flow then t.max_flow <- p.flow;
  t.pool.(i) <- p.pool;
  t.seq.(i) <- p.seq;
  t.size.(i) <- p.size;
  t.n <- i + 1

let maybe_tick t ~now op =
  if now -. t.last_tick >= t.tick_interval then begin
    t.last_tick <- now;
    push t ~now op t.scratch
  end

let note_enqueue t ~now (p : Packet.t) drops =
  maybe_tick t ~now op_tick_enqueue;
  (match p.kind with
  | Packet.Syn -> push t ~now op_syn p
  | Packet.Data -> push t ~now op_data p
  | Packet.Ack | Packet.Syn_ack | Packet.Fin -> ());
  List.iter
    (fun (v : Packet.t) -> if v.kind <> Packet.Syn then push t ~now op_drop v)
    drops

let note_dequeue t ~now = maybe_tick t ~now op_tick_dequeue

(* Tracker cost the live discipline pays inside its enqueue calls. *)
let enqueue_side_ns t = t.observe_ns + t.tick_enqueue_ns

(* What must agree between the replayed and the live tracker: the flow
   counts, and for every flow the state that does not depend on drops
   (the live disc also counts buffer-full SYN drops, which the replay
   skips). A mistimed tick shows up in the epochs rolled. *)
let summary t tracker =
  let b = Buffer.create 4096 in
  for flow = 0 to t.max_flow do
    Printf.bprintf b "%d:%d:%d:%h:%h " flow
      (Flow_tracker.epochs_observed tracker ~flow)
      (Flow_tracker.silence_epochs tracker ~flow)
      (Flow_tracker.epoch_len tracker ~flow)
      (Flow_tracker.rate_bps tracker ~flow)
  done;
  Printf.sprintf "tracked=%d peak=%d flows=%s"
    (Flow_tracker.tracked_flow_count tracker)
    (Flow_tracker.peak_tracked tracker)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

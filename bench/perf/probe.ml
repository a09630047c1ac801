(* Host-time spans taken at layer boundaries the benchmark owns: a
   wrapper around the installed discipline, the two Dumbbell delivery
   interceptors and the benchmark's own metrics listener. Nothing here
   reaches inside a library; a layer's cost is whatever runs between
   the two clock reads around the call into it.

   A span's self time is its duration minus the spans nested in it
   (the metrics listener runs inside the receiver's delivery, for
   instance). Time outside every span is the engine's. *)

module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Dumbbell = Taq_net.Dumbbell
module Trace = Taq_obs.Trace

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = Enqueue | Dequeue | Ack | Rx | Metrics

let index = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Ack -> 2
  | Rx -> 3
  | Metrics -> 4

let span_name = function
  | Enqueue -> "disc.enqueue"
  | Dequeue -> "disc.dequeue"
  | Ack -> "tcp.ack"
  | Rx -> "tcp.rx"
  | Metrics -> "metrics.record"

let span_cat = function
  | Enqueue | Dequeue -> "disc"
  | Ack | Rx -> "tcp"
  | Metrics -> "metrics"

(* Spans of packets whose uid is a multiple of this go to the trace
   ring (a power of two: the test is a mask). *)
let sample_every = 64

(* Enqueue durations land in log-spaced buckets, 16 per octave, for a
   p99 within about 4%. *)
let buckets_per_octave = 16.0

let n_buckets = 640

type t = {
  total_ns : int array;  (* per layer *)
  self_ns : int array;
  calls : int array;
  mutable top_ns : int;  (* time inside outermost spans *)
  (* the stack of open spans *)
  start : int array;
  child : int array;
  uid : int array;
  mutable depth : int;
  enqueue_hist : int array;
  trace : Trace.t;
  origin_ns : int;
}

let create () =
  {
    total_ns = Array.make 5 0;
    self_ns = Array.make 5 0;
    calls = Array.make 5 0;
    top_ns = 0;
    start = Array.make 8 0;
    child = Array.make 8 0;
    uid = Array.make 8 (-1);
    depth = 0;
    enqueue_hist = Array.make n_buckets 0;
    trace = Trace.create ();
    origin_ns = now_ns ();
  }

(* [uid] < 0 inherits the enclosing span's packet, so a nested span is
   sampled with the packet that caused it. *)
let enter t ~uid =
  let d = t.depth in
  t.uid.(d) <- (if uid < 0 && d > 0 then t.uid.(d - 1) else uid);
  t.child.(d) <- 0;
  t.depth <- d + 1;
  t.start.(d) <- now_ns ()

let leave t layer ~uid ~flow =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.start.(d) in
  let i = index layer in
  t.total_ns.(i) <- t.total_ns.(i) + dur;
  t.self_ns.(i) <- t.self_ns.(i) + dur - t.child.(d);
  t.calls.(i) <- t.calls.(i) + 1;
  if d > 0 then t.child.(d - 1) <- t.child.(d - 1) + dur
  else t.top_ns <- t.top_ns + dur;
  let uid = if uid >= 0 then uid else t.uid.(d) in
  if uid >= 0 && uid land (sample_every - 1) = 0 then
    Trace.add t.trace
      {
        Trace.name = span_name layer;
        cat = span_cat layer;
        ph = Trace.Span;
        ts_us = float_of_int (t.start.(d) - t.origin_ns) /. 1e3;
        dur_us = float_of_int dur /. 1e3;
        flow;
      };
  dur

let bucket ns =
  if ns <= 1 then 0
  else
    Stdlib.min (n_buckets - 1)
      (int_of_float (Float.log2 (float_of_int ns) *. buckets_per_octave))

(* Upper edge of the bucket holding the [q]-quantile enqueue. *)
let enqueue_quantile_ns t q =
  let total = Array.fold_left ( + ) 0 t.enqueue_hist in
  let rank = Float.to_int (Float.ceil (q *. float_of_int total)) in
  let rec go b seen =
    if b >= n_buckets - 1 then b
    else
      let seen = seen + t.enqueue_hist.(b) in
      if seen >= rank then b else go (b + 1) seen
  in
  let b = go 0 0 in
  Float.pow 2.0 (float_of_int (b + 1) /. buckets_per_octave)

(* The discipline as the link sees it, timed. [on_enqueue] and
   [on_dequeue] run after the span closes, so the benchmark's own
   bookkeeping is not charged to the discipline. *)
let wrap_disc t ~on_enqueue ~on_dequeue (d : Disc.t) =
  {
    d with
    Disc.enqueue =
      (fun p ->
        let uid = p.Packet.uid in
        enter t ~uid;
        let drops = d.Disc.enqueue p in
        let dur = leave t Enqueue ~uid ~flow:p.Packet.flow in
        let b = bucket dur in
        t.enqueue_hist.(b) <- t.enqueue_hist.(b) + 1;
        on_enqueue p drops;
        drops);
    dequeue =
      (fun () ->
        enter t ~uid:(-1);
        let r = d.Disc.dequeue () in
        (match r with
        | Some p -> ignore (leave t Dequeue ~uid:p.Packet.uid ~flow:p.flow)
        | None -> ignore (leave t Dequeue ~uid:(-1) ~flow:(-1)));
        on_dequeue ();
        r);
  }

(* A delivery tap that times the real continuation (the TCP endpoint's
   handling) and then recycles the packet, exactly as the untapped path
   does, so a traced run allocates like a plain one. *)
let intercept t layer alloc : Dumbbell.interceptor =
 fun p deliver ->
  let uid = p.Packet.uid and flow = p.Packet.flow in
  enter t ~uid;
  deliver p;
  ignore (leave t layer ~uid ~flow);
  Packet.release alloc p

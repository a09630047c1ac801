module Sim = Taq_engine.Sim
module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type stats = {
  offered : int;
  bytes_offered : int;
  transmitted : int;
  dropped : int;
  bytes_transmitted : int;
  busy_time : float;
}

(* A placeholder for the "no packet" state of the transmitter and the
   unused tail of the in-flight ring: never enqueued, never delivered,
   never released (negative uid). *)
let dummy_packet () =
  {
    Packet.uid = -2;
    flow = -1;
    pool = -1;
    kind = Packet.Data;
    seq = 0;
    size = 0;
    retx = false;
    sacks = [];
    sent_at = 0.0;
  }

type t = {
  sim : Sim.t;
  capacity_bps : float;
  prop_delay : float;
  disc : Disc.t;
  deliver : Packet.t -> unit;
  release : (Packet.t -> unit) option;
      (* Packet-pool hook installed by the owning network: called for
         every drop victim once all listeners and accounting have seen
         it. Absent for standalone links (no pooling). *)
  mutable busy : bool;
  mutable background_bps : float;
      (* Capacity claimed by an aggregate (fluid) background process:
         packet transmissions proceed at the residual rate
         [capacity_bps - background_bps]. 0 when no hybrid backend is
         attached, in which case every transmission time is computed
         exactly as before ([c -. 0.] = [c] bit for bit). *)
  mutable rate_factor : float;
      (* Brownout fault hook: transmissions proceed at
         [(capacity - background) * rate_factor]. 1.0 (no brownout
         active) is the IEEE multiplicative identity, so un-faulted
         links compute bit-identical transmission times. *)
  mutable up : bool;
      (* Fault-injection hook: while [false] the transmitter starts no
         new transmissions (a packet already on the wire completes).
         Arrivals keep flowing into the discipline, so queue drops
         under a down link are the discipline's, preserving the
         conservation invariant. *)
  (* The transmitter is serialized, so the packet on the wire and its
     serialization time live in the link, not in a per-transmission
     closure; [tx_dt] is a flat float cell because a mutable float
     field here would box on every store. *)
  mutable tx_pkt : Packet.t;
  tx_dt : float array;
  mutable tx_done : unit -> unit;  (* shared tx-complete action *)
  mutable deliver_front : unit -> unit;  (* shared delivery action *)
  (* Packets that completed transmission and are propagating. Delivery
     events fire in FIFO order (completion times are strictly
     increasing and prop_delay is constant), so a ring queue replaces
     the per-packet delivery closures. *)
  mutable ring : Packet.t array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable offered : int;
  mutable bytes_offered : int;
  mutable transmitted : int;
  mutable dropped : int;
  mutable bytes_transmitted : int;
  busy_time : float array;  (* flat cell: accumulated once per tx *)
  mutable drop_listeners : (Packet.t -> unit) list;
  mutable enqueue_listeners : (Packet.t -> unit) list;
  mutable deliver_listeners : (Packet.t -> unit) list;
  (* Conservation bookkeeping, maintained only when the [Net] check
     group is enabled. *)
  check : Check.t;
  obs : Obs.t;
  mutable chk_accepted : int;
  mutable chk_bytes_accepted : int;
  mutable chk_pushout : int;
  mutable chk_bytes_pushout : int;
  mutable chk_dqdrop : int;
      (** packets the discipline discarded at dequeue time (CoDel-style) *)
  mutable chk_bytes_dqdrop : int;
  mutable chk_tx_size : int;  (** size of the packet on the wire, if busy *)
}

(* Packet conservation: every packet accepted into the queue is either
   fully transmitted, on the wire right now, evicted by a push-out
   discipline, discarded at dequeue time, or still queued — and the
   same must hold for bytes. *)
let verify_conservation t ~where =
  let qlen = t.disc.Disc.length () in
  let qbytes = t.disc.Disc.bytes () in
  Check.require t.check Check.Net (qlen >= 0 && qbytes >= 0) (fun () ->
      Printf.sprintf "%s: negative queue state len=%d bytes=%d" where qlen
        qbytes);
  Check.require t.check Check.Net
    ((qlen = 0) = (qbytes = 0))
    (fun () ->
      Printf.sprintf "%s: queue len/bytes disagree on emptiness len=%d bytes=%d"
        where qlen qbytes);
  let in_tx = if t.busy then 1 else 0 in
  let lhs = t.chk_accepted in
  let rhs = t.transmitted + in_tx + t.chk_pushout + t.chk_dqdrop + qlen in
  Check.require t.check Check.Net (lhs = rhs) (fun () ->
      Printf.sprintf
        "%s: packet conservation broken: accepted=%d <> transmitted=%d + \
         in_tx=%d + pushout=%d + dqdrop=%d + queued=%d"
        where t.chk_accepted t.transmitted in_tx t.chk_pushout t.chk_dqdrop
        qlen);
  let in_tx_bytes = if t.busy then t.chk_tx_size else 0 in
  let blhs = t.chk_bytes_accepted in
  let brhs =
    t.bytes_transmitted + in_tx_bytes + t.chk_bytes_pushout
    + t.chk_bytes_dqdrop + qbytes
  in
  Check.require t.check Check.Net (blhs = brhs) (fun () ->
      Printf.sprintf
        "%s: byte conservation broken: accepted=%d <> transmitted=%d + \
         in_tx=%d + pushout=%d + dqdrop=%d + queued=%d"
        where t.chk_bytes_accepted t.bytes_transmitted in_tx_bytes
        t.chk_bytes_pushout t.chk_bytes_dqdrop qbytes)

(* Top-level listener iteration: [List.iter (fun f -> f p) ...] would
   allocate the closure on every call, and these run per packet. *)
let rec notify_all fs (p : Packet.t) =
  match fs with
  | [] -> ()
  | f :: rest ->
      f p;
      notify_all rest p

let on_drop t f = t.drop_listeners <- f :: t.drop_listeners

let on_enqueue t f = t.enqueue_listeners <- f :: t.enqueue_listeners

let on_deliver t f = t.deliver_listeners <- f :: t.deliver_listeners

let tx_time t (p : Packet.t) =
  float_of_int (p.size * 8)
  /. ((t.capacity_bps -. t.background_bps) *. t.rate_factor)

let set_background_bps t bps =
  if bps < 0.0 || bps >= t.capacity_bps then
    invalid_arg
      (Printf.sprintf "Link.set_background_bps: %g outside [0, %g)" bps
         t.capacity_bps);
  t.background_bps <- bps

let background_bps t = t.background_bps

let set_rate_factor t f =
  if not (Float.is_finite f) || f <= 0.0 || f > 1.0 then
    invalid_arg
      (Printf.sprintf "Link.set_rate_factor: %g outside (0, 1]" f);
  t.rate_factor <- f

let rate_factor t = t.rate_factor

(* Ring capacity is always a power of two (0 -> 16 -> 32 -> ...), so
   index wrap is a mask rather than a division. *)
let ring_push t p =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let ncap = Stdlib.max 16 (cap * 2) in
    let bigger = Array.make ncap p in
    for i = 0 to t.ring_len - 1 do
      bigger.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- bigger;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- p;
  t.ring_len <- t.ring_len + 1

let ring_pop t dummy =
  let p = t.ring.(t.ring_head) in
  t.ring.(t.ring_head) <- dummy;
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  p

(* Drops the discipline made while serving [dequeue] (CoDel-style):
   collected after every dequeue and accounted exactly like enqueue-time
   drops — stats, obs, listeners, conservation bucket, pool release. *)
let account_dequeue_drops t =
  match t.disc.Disc.dequeue_drops () with
  | [] -> ()
  | dropped ->
      let n_dropped = List.length dropped in
      t.dropped <- t.dropped + n_dropped;
      if Obs.enabled t.obs then Obs.add t.obs Obs.Link_dropped n_dropped;
      if Obs.tracing t.obs then
        List.iter
          (fun (d : Packet.t) ->
            Obs.instant t.obs ~name:"drop" ~cat:"drop" ~flow:d.flow
              ~ts_s:(Sim.now t.sim) ())
          dropped;
      List.iter (fun d -> notify_all t.drop_listeners d) dropped;
      if Check.on t.check Check.Net then
        List.iter
          (fun (d : Packet.t) ->
            t.chk_dqdrop <- t.chk_dqdrop + 1;
            t.chk_bytes_dqdrop <- t.chk_bytes_dqdrop + d.size)
          dropped;
      (match t.release with
      | Some release -> List.iter release dropped
      | None -> ())

let start_transmission t =
  if (not t.busy) && t.up then begin
    (match t.disc.Disc.dequeue () with
    | None -> ()
    | Some p ->
        t.busy <- true;
        if Check.on t.check Check.Net then t.chk_tx_size <- p.Packet.size;
        t.tx_pkt <- p;
        t.tx_dt.(0) <- tx_time t p;
        Sim.schedule_after t.sim ~delay:t.tx_dt.(0) t.tx_done);
    account_dequeue_drops t
  end

(* Same sequence of effects — and crucially the same sequence of
   [Sim.schedule] calls, hence identical event seqs and counters — as
   the per-transmission closures this replaces: complete the packet on
   the wire, schedule its delivery, start the next transmission. *)
let on_tx_done t dummy =
  let p = t.tx_pkt and dt = t.tx_dt.(0) in
  t.tx_pkt <- dummy;
  t.busy <- false;
  t.transmitted <- t.transmitted + 1;
  t.bytes_transmitted <- t.bytes_transmitted + p.Packet.size;
  t.busy_time.(0) <- t.busy_time.(0) +. dt;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs Obs.Link_transmitted;
    Obs.add t.obs Obs.Link_bytes_tx p.Packet.size
  end;
  if Obs.tracing t.obs then
    Obs.span t.obs ~name:"tx" ~cat:"link" ~flow:p.Packet.flow
      ~ts_s:(Sim.now t.sim -. dt) ~dur_s:dt ();
  if Check.on t.check Check.Net then verify_conservation t ~where:"tx-complete";
  ring_push t p;
  Sim.schedule_after t.sim ~delay:t.prop_delay t.deliver_front;
  start_transmission t

let on_deliver_front t dummy =
  let p = ring_pop t dummy in
  notify_all t.deliver_listeners p;
  t.deliver p

let create ?check ?obs ?release ~sim ~capacity_bps ~prop_delay ~disc ~deliver
    () =
  if capacity_bps <= 0.0 then invalid_arg "Link.create: capacity";
  let check = match check with Some c -> c | None -> Sim.check sim in
  let obs = match obs with Some o -> o | None -> Sim.obs sim in
  let dummy = dummy_packet () in
  let t =
    {
      sim;
      capacity_bps;
      prop_delay;
      disc;
      deliver;
      release;
      busy = false;
      background_bps = 0.0;
      rate_factor = 1.0;
      up = true;
      tx_pkt = dummy;
      tx_dt = [| 0.0 |];
      tx_done = (fun () -> ());
      deliver_front = (fun () -> ());
      ring = [||];
      ring_head = 0;
      ring_len = 0;
      offered = 0;
      bytes_offered = 0;
      transmitted = 0;
      dropped = 0;
      bytes_transmitted = 0;
      busy_time = [| 0.0 |];
      drop_listeners = [];
      enqueue_listeners = [];
      deliver_listeners = [];
      check;
      obs;
      chk_accepted = 0;
      chk_bytes_accepted = 0;
      chk_pushout = 0;
      chk_bytes_pushout = 0;
      chk_dqdrop = 0;
      chk_bytes_dqdrop = 0;
      chk_tx_size = 0;
    }
  in
  t.tx_done <- (fun () -> on_tx_done t dummy);
  t.deliver_front <- (fun () -> on_deliver_front t dummy);
  t

let send t p =
  t.offered <- t.offered + 1;
  t.bytes_offered <- t.bytes_offered + p.Packet.size;
  let dropped = t.disc.Disc.enqueue p in
  let n_dropped = List.length dropped in
  t.dropped <- t.dropped + n_dropped;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs Obs.Link_offered;
    if n_dropped > 0 then Obs.add t.obs Obs.Link_dropped n_dropped
  end;
  if Obs.tracing t.obs && n_dropped > 0 then
    List.iter
      (fun (d : Packet.t) ->
        Obs.instant t.obs ~name:"drop" ~cat:"drop" ~flow:d.flow
          ~ts_s:(Sim.now t.sim) ())
      dropped;
  (match dropped with
  | [] -> ()
  | dropped -> List.iter (fun d -> notify_all t.drop_listeners d) dropped);
  (* The offered packet was accepted iff it is not among the drops.
     Matching first keeps the common no-drop case closure-free. *)
  let accepted =
    match dropped with
    | [] -> true
    | dropped ->
        not (List.exists (fun d -> d.Packet.uid = p.Packet.uid) dropped)
  in
  if Check.on t.check Check.Net then begin
    if accepted then begin
      t.chk_accepted <- t.chk_accepted + 1;
      t.chk_bytes_accepted <- t.chk_bytes_accepted + p.Packet.size
    end;
    (* Drops other than the offered packet are push-out victims that
       previously entered the queue. *)
    List.iter
      (fun (d : Packet.t) ->
        if d.uid <> p.Packet.uid then begin
          t.chk_pushout <- t.chk_pushout + 1;
          t.chk_bytes_pushout <- t.chk_bytes_pushout + d.size
        end)
      dropped;
  end;
  if accepted then notify_all t.enqueue_listeners p;
  (* Drop victims are dead once every listener has seen them: recycle.
     (This runs after [accepted] is computed — release invalidates the
     uid the comparison reads.) *)
  (match t.release with
  | Some release -> List.iter release dropped
  | None -> ());
  start_transmission t;
  if Check.on t.check Check.Net then verify_conservation t ~where:"send"

let set_up t up =
  let was = t.up in
  t.up <- up;
  (* Coming back up: kick the transmitter so queued packets drain. *)
  if up && not was then start_transmission t

let is_up t = t.up

let stats t =
  {
    offered = t.offered;
    bytes_offered = t.bytes_offered;
    transmitted = t.transmitted;
    dropped = t.dropped;
    bytes_transmitted = t.bytes_transmitted;
    busy_time = t.busy_time.(0);
  }

let utilization t =
  let elapsed = Sim.now t.sim in
  if elapsed <= 0.0 then 0.0 else t.busy_time.(0) /. elapsed

let capacity_bps t = t.capacity_bps

let queue_length t = t.disc.Disc.length ()

let disc t = t.disc

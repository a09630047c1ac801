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

type t = {
  sim : Sim.t;
  capacity_bps : float;
  disc : Disc.t;
  deliver : Packet.t -> unit;
  release : (Packet.t -> unit) option;
      (* Packet-pool hook installed by the owning network: called for
         every drop victim once all listeners and accounting have seen
         it. Absent for standalone links (no pooling). *)
  mutable busy : bool;
  mutable rate_factor : float;
      (* Brownout fault hook: transmissions proceed at
         [capacity * rate_factor]. 1.0 (no brownout
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
     field here would box on every store. [tx_pkt] still holds the
     last packet once it leaves the wire: a pooled network keeps every
     released record alive anyway, so clearing it would only cost a
     pointer store per packet. *)
  mutable tx_pkt : Packet.t;
  tx_dt : float array;
  mutable tx_done : int;  (* the tx-complete action's owned slot *)
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
  (* Fixed for the link's life, so read once at create rather than
     through a call on every packet. *)
  checking : bool;  (* [Check.on check Net] *)
  counting : bool;  (* [Obs.enabled obs] *)
  tracing : bool;  (* [Obs.tracing obs] *)
  (* The [link.*] counter cells of [obs], looked up once. *)
  n_offered : int ref;
  n_transmitted : int ref;
  n_dropped : int ref;
  n_bytes_tx : int ref;
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
let[@inline never] verify_conservation t ~where =
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

(* Every drop in [ds], in order, to every listener in [fs]. *)
let rec notify_drops fs (ds : Packet.t list) =
  match ds with
  | [] -> ()
  | d :: rest ->
      notify_all fs d;
      notify_drops fs rest

let rec has_uid uid (ds : Packet.t list) =
  match ds with [] -> false | d :: rest -> d.uid = uid || has_uid uid rest

let on_drop t f = t.drop_listeners <- f :: t.drop_listeners

let on_enqueue t f = t.enqueue_listeners <- f :: t.enqueue_listeners

let on_deliver t f = t.deliver_listeners <- f :: t.deliver_listeners

let tx_time t (p : Packet.t) =
  float_of_int (p.size * 8) /. (t.capacity_bps *. t.rate_factor)

let set_rate_factor t f =
  if not (Float.is_finite f) || f <= 0.0 || f > 1.0 then
    invalid_arg
      (Printf.sprintf "Link.set_rate_factor: %g outside (0, 1]" f);
  t.rate_factor <- f

(* Drops the discipline made while serving [dequeue] (CoDel-style):
   collected after every dequeue and accounted exactly like enqueue-time
   drops — stats, obs, listeners, conservation bucket, pool release. *)
let account_dequeue_drops t =
  match t.disc.Disc.dequeue_drops () with
  | [] -> ()
  | dropped ->
      let n_dropped = List.length dropped in
      t.dropped <- t.dropped + n_dropped;
      if t.counting then t.n_dropped := !(t.n_dropped) + n_dropped;
      if t.tracing then
        List.iter
          (fun (d : Packet.t) ->
            Obs.instant t.obs ~name:"drop" ~cat:"drop" ~flow:d.flow
              ~ts_s:(Sim.now t.sim) ())
          dropped;
      notify_drops t.drop_listeners dropped;
      if t.checking then
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
        if t.checking then t.chk_tx_size <- p.Packet.size;
        t.tx_pkt <- p;
        t.tx_dt.(0) <- tx_time t p;
        Sim.transmit t.sim t.tx_done ~delay:t.tx_dt.(0));
    account_dequeue_drops t
  end

(* The packet leaves the link: the deliver listeners, then [deliver]. *)
let leave t p =
  notify_all t.deliver_listeners p;
  t.deliver p

(* Account the packet that left the wire, start the next transmission,
   and deliver the packet where a zero-delay entry filed before
   [start_transmission] would run. With nothing else due now, that
   entry would run next, ahead of anything [start_transmission] files
   at [now]: so the delivery runs here, as the last step, and no entry
   is filed. Otherwise the delivery is filed on the lane, before
   [start_transmission]. The lane takes no seq, so both paths keep
   every seq and every order (DESIGN.md, "Link exit"). *)
let on_tx_done t =
  let p = t.tx_pkt and dt = t.tx_dt.(0) in
  t.busy <- false;
  t.transmitted <- t.transmitted + 1;
  t.bytes_transmitted <- t.bytes_transmitted + p.Packet.size;
  t.busy_time.(0) <- t.busy_time.(0) +. dt;
  if t.counting then begin
    incr t.n_transmitted;
    t.n_bytes_tx := !(t.n_bytes_tx) + p.Packet.size
  end;
  if t.tracing then
    Obs.span t.obs ~name:"tx" ~cat:"link" ~flow:p.Packet.flow
      ~ts_s:(Sim.now t.sim -. dt) ~dur_s:dt ();
  if t.checking then verify_conservation t ~where:"tx-complete";
  if Sim.due_now t.sim then begin
    Sim.schedule_after t.sim ~delay:0.0 (fun () -> leave t p);
    start_transmission t
  end
  else begin
    start_transmission t;
    leave t p
  end

let create ?check ?release ~sim ~capacity_bps ~disc ~deliver () =
  if capacity_bps <= 0.0 then invalid_arg "Link.create: capacity";
  let check = match check with Some c -> c | None -> Sim.check sim in
  let obs = Sim.obs sim in
  let t =
    {
      sim;
      capacity_bps;
      disc;
      deliver;
      release;
      busy = false;
      rate_factor = 1.0;
      up = true;
      tx_pkt = Packet.dummy;
      tx_dt = [| 0.0 |];
      tx_done = -1;
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
      checking = Check.on check Check.Net;
      counting = Obs.enabled obs;
      tracing = Obs.tracing obs;
      n_offered = Obs.labeled_ref obs "link.offered";
      n_transmitted = Obs.labeled_ref obs "link.transmitted";
      n_dropped = Obs.labeled_ref obs "link.dropped";
      n_bytes_tx = Obs.labeled_ref obs "link.bytes_transmitted";
      chk_accepted = 0;
      chk_bytes_accepted = 0;
      chk_pushout = 0;
      chk_bytes_pushout = 0;
      chk_dqdrop = 0;
      chk_bytes_dqdrop = 0;
      chk_tx_size = 0;
    }
  in
  t.tx_done <- Sim.own sim (fun () -> on_tx_done t);
  t

(* [send] when the discipline dropped [dropped], which is not empty:
   the offered packet, push-out victims, or both. *)
let send_with_drops t p dropped =
  let n_dropped = List.length dropped in
  t.dropped <- t.dropped + n_dropped;
  if t.counting then begin
    incr t.n_offered;
    t.n_dropped := !(t.n_dropped) + n_dropped
  end;
  if t.tracing then
    List.iter
      (fun (d : Packet.t) ->
        Obs.instant t.obs ~name:"drop" ~cat:"drop" ~flow:d.flow
          ~ts_s:(Sim.now t.sim) ())
      dropped;
  notify_drops t.drop_listeners dropped;
  (* The offered packet was accepted iff it is not among the drops. *)
  let accepted = not (has_uid p.Packet.uid dropped) in
  if t.checking then begin
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
  if t.checking then verify_conservation t ~where:"send"

(* Most offered packets are accepted with no push-out: that case does
   the accepted packet's work alone, in the order [send_with_drops]
   does it. *)
let send t p =
  t.offered <- t.offered + 1;
  t.bytes_offered <- t.bytes_offered + p.Packet.size;
  match t.disc.Disc.enqueue p with
  | [] ->
      if t.counting then incr t.n_offered;
      if t.checking then begin
        t.chk_accepted <- t.chk_accepted + 1;
        t.chk_bytes_accepted <- t.chk_bytes_accepted + p.Packet.size
      end;
      notify_all t.enqueue_listeners p;
      start_transmission t;
      if t.checking then verify_conservation t ~where:"send"
  | dropped -> send_with_drops t p dropped

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

let queue_length t = t.disc.Disc.length ()

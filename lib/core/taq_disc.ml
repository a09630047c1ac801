module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Disc = Taq_net.Disc
module Check = Taq_check.Check
module Obs = Taq_obs.Obs
module Int_tbl = Taq_util.Int_tbl

let log_src = Logs.Src.create "taq" ~doc:"TAQ middlebox decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  enqueued : int;
  dropped : int;
  admission_rejected : int;
  forced_recovery_drops : int;
  restarts : int;
  drops_by_class : (Taq_queues.class_ * int) list;
}

type t = {
  sim : Sim.t;
  config : Taq_config.t;
  mutable tracker : Flow_tracker.t;
  mutable admission : Admission.t option;
  mutable guard : Overload.t option;
  queues : Taq_queues.t;
  (* The time, read on every packet, and the time of the last tick:
     float cells, so neither read nor store boxes. [clock] is
     [Sim.clock sim]; [Sim.now] returns the time boxed. *)
  clock : float array;
  last_tick : float array;
  mutable n_enqueued : int;
  mutable n_dequeued : int;
  mutable n_queue_evicted : int;  (* push-out victims: left the queue
                                     without being dequeued *)
  mutable n_dropped : int;
  mutable n_admission_rejected : int;
  mutable n_forced_recovery : int;
  mutable n_restarts : int;
  drop_counts : int array;  (* by [Taq_queues.class_index] *)
  check : Check.t;
  chk_pools : (int, unit) Hashtbl.t;  (* pool keys seen, check-only *)
  obs : Obs.t;
  (* Fixed for the disc's life, so read once at create rather than
     through a call on every packet. *)
  checking : bool;  (* [Check.on check Core] *)
  counting : bool;  (* [Obs.enabled obs] *)
  tracing : bool;  (* [Obs.tracing obs] *)
  obs_last_class : Taq_queues.class_ Int_tbl.t;
      (* last class each flow's data was queued into — maintained only
         when obs is enabled, to count class transitions *)
  (* Pre-resolved [taq.drop.<class>] and [taq.transition.<from>_to_<to>]
     counters, indexed by [Taq_queues.class_index] (dummy refs when obs
     is off). *)
  obs_drops : int ref array;
  obs_transitions : int ref array array;
}

(* Scheduling rank used only to decide push-out: an arrival may evict a
   strictly lower-priority victim. *)
let rank = function
  | Taq_queues.Recovery -> 0
  | Taq_queues.New_flow | Taq_queues.Over_penalized
  | Taq_queues.Below_fair_share ->
      1
  | Taq_queues.Above_fair_share -> 2

let create ?check ?obs ~sim ~config () =
  let check = match check with Some c -> c | None -> Sim.check sim in
  let obs = match obs with Some o -> o | None -> Sim.obs sim in
  let now () = Sim.now sim and clock = Sim.clock sim in
  let classes = Array.of_list Taq_queues.all_classes in
  let n_classes = Array.length classes in
  let name = Taq_queues.class_to_string in
  let obs_drops, obs_transitions =
    if Obs.enabled obs then
      ( Array.map (fun c -> Obs.labeled_ref obs ("taq.drop." ^ name c)) classes,
        Array.map
          (fun prev ->
            Array.map
              (fun cls ->
                if cls = prev then ref 0
                else
                  Obs.labeled_ref obs
                    (Printf.sprintf "taq.transition.%s_to_%s" (name prev)
                       (name cls)))
              classes)
          classes )
    else
      (* Off: one sink absorbs the increments, and set-up builds no
         counter names. *)
      let sink = ref 0 in
      let row = Array.make n_classes sink in
      (row, Array.make n_classes row)
  in
  {
    check;
    chk_pools = Hashtbl.create 16;
    obs;
    checking = Check.on check Check.Core;
    counting = Obs.enabled obs;
    tracing = Obs.tracing obs;
    obs_last_class = Int_tbl.create 64;
    obs_drops;
    obs_transitions;
    sim;
    config;
    tracker = Flow_tracker.create ~obs ~config ~now ();
    admission =
      Option.map
        (fun a -> Admission.create ~config:a ~clock)
        config.Taq_config.admission;
    guard =
      (if config.Taq_config.guard then
         Some
           (Overload.create ~check ~obs
              ~cap:config.Taq_config.max_tracked_flows ~now ())
       else None);
    queues = Taq_queues.create ~config ~clock;
    clock;
    last_tick = [| clock.(0) |];
    n_enqueued = 0;
    n_dequeued = 0;
    n_queue_evicted = 0;
    n_dropped = 0;
    n_admission_rejected = 0;
    n_forced_recovery = 0;
    n_restarts = 0;
    drop_counts = Array.make n_classes 0;
  }

(* Middlebox restart (control-plane state loss): the flow tracker —
   including every per-flow epoch estimator — and the admission
   controller are rebuilt from scratch, exactly as if the TAQ box had
   rebooted. Queued packets survive (they sit in the data plane), so
   link-level packet/byte conservation holds across a restart; the
   box simply re-learns every flow from the next packet it sees —
   re-observed flows start over as New_flow until their epochs
   re-establish. *)
let restart t =
  let now () = Sim.now t.sim in
  t.tracker <- Flow_tracker.create ~obs:t.obs ~config:t.config ~now ();
  t.admission <-
    Option.map
      (fun a -> Admission.create ~config:a ~clock:t.clock)
      t.config.Taq_config.admission;
  (* The guard is control-plane state too: a rebooted box starts in
     Normal mode, and its cap-eviction baseline restarts with the
     fresh tracker. *)
  t.guard <-
    (if t.config.Taq_config.guard then
       Some
         (Overload.create ~check:t.check ~obs:t.obs
            ~cap:t.config.Taq_config.max_tracked_flows ~now ())
     else None);
  Hashtbl.reset t.chk_pools;
  (* The box forgot every flow: class transitions restart from scratch
     too, mirroring the control-plane state loss. *)
  Int_tbl.reset t.obs_last_class;
  t.n_restarts <- t.n_restarts + 1;
  if t.counting then Obs.labeled t.obs "taq.restarts" 1;
  if t.tracing then
    Obs.instant t.obs ~name:"restart" ~cat:"taq" ~ts_s:(Sim.now t.sim) ();
  Log.debug (fun m ->
      m "t=%.3f middlebox restart #%d: tracker and admission state lost"
        (Sim.now t.sim) t.n_restarts)

(* TAQ accounting invariants: the aggregate packet/byte counters must
   equal the sums over the five class queues, occupancy must respect
   the configured buffer, the recovery queue must stay priority-sorted,
   and tracker/admission entry counts must stay within what has been
   observed. Verified after every enqueue and dequeue when the [Core]
   group is enabled. *)
let[@inline never] verify t ~where =
  let c = t.check in
  let q = t.queues in
  let sum_len =
    List.fold_left
      (fun acc cls -> acc + Taq_queues.class_length q cls)
      0 Taq_queues.all_classes
  and sum_bytes =
    List.fold_left
      (fun acc cls -> acc + Taq_queues.class_bytes q cls)
      0 Taq_queues.all_classes
  and total = Taq_queues.total_packets q
  and total_bytes = Taq_queues.total_bytes q in
  Check.require c Check.Core (sum_len = total) (fun () ->
      Printf.sprintf "%s: class occupancy sum %d <> total_packets %d" where
        sum_len total);
  Check.require c Check.Core (sum_bytes = total_bytes) (fun () ->
      Printf.sprintf "%s: class byte sum %d <> total_bytes %d" where sum_bytes
        total_bytes);
  Check.require c Check.Core
    (0 <= total && total <= t.config.Taq_config.capacity_pkts)
    (fun () ->
      Printf.sprintf "%s: occupancy %d outside [0,%d]" where total
        t.config.Taq_config.capacity_pkts);
  Check.require c Check.Core
    ((total = 0) = (total_bytes = 0))
    (fun () ->
      Printf.sprintf "%s: packets/bytes disagree on emptiness: %d pkts %d \
                      bytes"
        where total total_bytes);
  Check.require c Check.Core (Taq_queues.recovery_sorted q) (fun () ->
      Printf.sprintf "%s: recovery queue priorities out of order" where);
  let tr = t.tracker in
  let active = Flow_tracker.active_flow_count tr
  and tracked = Flow_tracker.tracked_flow_count tr in
  Check.require c Check.Core (active <= tracked) (fun () ->
      Printf.sprintf "%s: active flows %d > tracked flows %d" where active
        tracked);
  (* The tracker's deadline heaps against full scans. *)
  let scanned = Flow_tracker.active_flow_count_scan tr in
  Check.require c Check.Core (active = scanned) (fun () ->
      Printf.sprintf "%s: incremental active count %d <> scanned %d" where
        active scanned);
  let overdue = Flow_tracker.overdue_flows tr in
  Check.require c Check.Core (overdue = 0) (fun () ->
      Printf.sprintf
        "%s: %d tracked flows missing from or out of order in the idle list"
        where overdue);
  Check.require c Check.Core (Flow_tracker.clock_monotone tr) (fun () ->
      Printf.sprintf "%s: flow tracker clock went backwards" where);
  Option.iter
    (fun a ->
      let known = Admission.admitted_count a + Admission.waiting_count a in
      let seen = Hashtbl.length t.chk_pools in
      Check.require c Check.Core (known <= seen) (fun () ->
          Printf.sprintf
            "%s: admission knows %d pools but only %d SYN pool keys seen" where
            known seen))
    t.admission

(* Feed the overload guard one observation and verify the guard-group
   invariants that must hold in and across mode switches. *)
let guard_sample t =
  match t.guard with
  | None -> ()
  | Some g ->
      let was = Overload.mode g in
      Overload.sample g
        ~tracked:(Flow_tracker.tracked_flow_count t.tracker)
        ~cap_evictions:(Flow_tracker.cap_evictions t.tracker)
        ~waiting:
          (match t.admission with
          | None -> 0
          | Some a -> Admission.waiting_count a);
      (* Packet conservation across mode switches: everything that
         entered the queues either left through dequeue, was pushed
         out, or is still queued — regardless of which mode admitted
         it. *)
      if Check.on t.check Check.Guard then begin
        let total = Taq_queues.total_packets t.queues in
        Check.require t.check Check.Guard
          (t.n_enqueued - t.n_dequeued - t.n_queue_evicted = total)
          (fun () ->
            Printf.sprintf
              "conservation: enqueued %d - dequeued %d - evicted %d <> queued \
               %d (mode %s)"
              t.n_enqueued t.n_dequeued t.n_queue_evicted total
              (Overload.mode_name (Overload.mode g)))
      end;
      let now_mode = Overload.mode g in
      if was <> now_mode then begin
        (* Entering Degraded sheds the admission wait queue: admission
           is bypassed from here on, so nothing would ever service it,
           and a frozen backlog would read as perpetual waiting-count
           pressure and pin the guard in Degraded. Clients retry their
           SYNs, so live pools re-queue once admission resumes. *)
        if now_mode = Overload.Degraded then
          Option.iter Admission.shed_waiting t.admission;
        Log.debug (fun m ->
            m "t=%.3f guard %s -> %s" (Sim.now t.sim) (Overload.mode_name was)
              (Overload.mode_name now_mode))
      end

let lazy_tick t =
  let now = t.clock.(0) in
  if now -. t.last_tick.(0) >= t.config.Taq_config.tick_interval then begin
    t.last_tick.(0) <- now;
    Flow_tracker.tick t.tracker;
    Option.iter Admission.expire t.admission;
    guard_sample t
  end

let count_drop t cls =
  t.n_dropped <- t.n_dropped + 1;
  let i = Taq_queues.class_index cls in
  t.drop_counts.(i) <- t.drop_counts.(i) + 1;
  incr t.obs_drops.(i)

(* The NewFlow queue holds at most a quarter of the buffer. *)
let newflow_cap t = Int.max 2 (t.config.Taq_config.capacity_pkts / 4)

let pool_key (p : Packet.t) = if p.pool >= 0 then p.pool else -p.flow - 2

(* Admit [p] into class [cls], evicting a lower-priority victim when the
   buffer is full. Returns the drops caused. *)
let enqueue_with_pushout t (p : Packet.t) cls ~priority =
  if Taq_queues.total_packets t.queues < t.config.Taq_config.capacity_pkts
  then begin
    Taq_queues.enqueue t.queues cls ~priority p;
    t.n_enqueued <- t.n_enqueued + 1;
    Option.iter Admission.note_arrival t.admission;
    []
  end
  else begin
    match Taq_queues.select_victim t.queues with
    | Some victim_cls when rank victim_cls > rank cls -> (
        match Taq_queues.drop_from t.queues victim_cls with
        | Some victim ->
            t.n_queue_evicted <- t.n_queue_evicted + 1;
            Flow_tracker.observe_drop t.tracker victim;
            Option.iter Admission.note_drop t.admission;
            count_drop t victim_cls;
            Taq_queues.enqueue t.queues cls ~priority p;
            t.n_enqueued <- t.n_enqueued + 1;
            [ victim ]
        | None ->
            (* select_victim said non-empty; defensive fallback. *)
            Flow_tracker.observe_drop t.tracker p;
            Option.iter Admission.note_drop t.admission;
            count_drop t cls;
            [ p ])
    | Some _ | None ->
        (* The arrival is not higher priority than anything queued:
           drop the arrival itself. *)
        Flow_tracker.observe_drop t.tracker p;
        Option.iter Admission.note_drop t.admission;
        count_drop t cls;
        if cls = Taq_queues.Recovery then begin
          t.n_forced_recovery <- t.n_forced_recovery + 1;
          Log.debug (fun m ->
              m "t=%.3f forced recovery drop flow=%d seq=%d (buffer full)"
                (Sim.now t.sim) p.Packet.flow p.Packet.seq)
        end;
        [ p ]
  end

let enqueue_syn t (p : Packet.t) =
  Flow_tracker.observe_syn t.tracker ~flow:p.flow ~pool:p.pool;
  let admission_ok =
    match t.admission with
    | None -> true
    | Some a -> (
        match Admission.on_syn a ~key:(pool_key p) with
        | Admission.Admitted -> true
        | Admission.Rejected -> false)
  in
  if not admission_ok then begin
    t.n_admission_rejected <- t.n_admission_rejected + 1;
    t.n_dropped <- t.n_dropped + 1;
    if t.counting then Obs.labeled t.obs "taq.admission_rejected" 1;
    Log.debug (fun m ->
        m "t=%.3f admission rejected SYN flow=%d pool=%d" (Sim.now t.sim)
          p.Packet.flow p.Packet.pool);
    [ p ]
  end
  else if
    (* The NewFlow queue occupancy cap throttles connection setup. *)
    Taq_queues.class_length t.queues Taq_queues.New_flow >= newflow_cap t
  then begin
    count_drop t Taq_queues.New_flow;
    [ p ]
  end
  else enqueue_with_pushout t p Taq_queues.New_flow ~priority:0

let enqueue_data t (p : Packet.t) =
  let cls = Flow_tracker.classify_data t.tracker p in
  (match t.admission with
  | Some a -> Admission.touch a ~key:(pool_key p)
  | None -> ());
  if t.checking then
    Check.require t.check Check.Core
      (Flow_tracker.rolled t.tracker ~flow:p.flow)
      (fun () ->
        Printf.sprintf
          "enqueue: flow %d classified on epochs not rolled through the last \
           tick"
          p.flow);
  (* Data of a young flow falls back to BelowFairShare when the NewFlow
     queue is at its cap: the cap throttles connections, not bytes. *)
  let cls =
    if
      cls = Taq_queues.New_flow
      && Taq_queues.class_length t.queues Taq_queues.New_flow >= newflow_cap t
    then Taq_queues.Below_fair_share
    else cls
  in
  if t.counting then begin
    match Int_tbl.find t.obs_last_class p.flow with
    | prev when prev = cls -> ()
    | prev ->
        let row = t.obs_transitions.(Taq_queues.class_index prev) in
        incr row.(Taq_queues.class_index cls);
        if t.tracing then
          Obs.instant t.obs
            ~name:
              (Printf.sprintf "%s->%s"
                 (Taq_queues.class_to_string prev)
                 (Taq_queues.class_to_string cls))
            ~cat:"taq" ~flow:p.flow ~ts_s:(Sim.now t.sim) ();
        Int_tbl.replace t.obs_last_class p.flow cls
    | exception Not_found -> Int_tbl.replace t.obs_last_class p.flow cls
  end;
  let priority =
    match cls with
    | Taq_queues.Recovery ->
        (* Longer silences served first (§4.1): retransmissions from
           extended silence outrank those from a first silence, which
           outrank fresh fast retransmissions. *)
        Flow_tracker.recovery_priority t.tracker
    | Taq_queues.New_flow | Taq_queues.Over_penalized
    | Taq_queues.Below_fair_share | Taq_queues.Above_fair_share ->
        0
  in
  enqueue_with_pushout t p cls ~priority

(* Degraded mode (overload guard tripped): behave as a plain droptail
   FIFO. Per-flow *observation* continues — the tracker is hard-bounded
   by [max_tracked_flows] now, and keeping it warm is both what feeds
   the guard's churn signal and what lets classification resume
   seamlessly once pressure subsides — but classification, admission
   control, the NewFlow cap and push-out are all bypassed: every
   packet goes FIFO into BelowFairShare, arrivals beyond the buffer
   are tail-dropped. Admission's loss EWMA is deliberately not fed:
   flood-induced tail drops would otherwise poison the controller and
   keep rejecting pools long after recovery. *)
let enqueue_degraded t (p : Packet.t) =
  (match p.kind with
  | Packet.Syn -> Flow_tracker.observe_syn t.tracker ~flow:p.flow ~pool:p.pool
  | Packet.Data -> ignore (Flow_tracker.observe_data t.tracker p)
  | Packet.Ack | Packet.Syn_ack | Packet.Fin -> ());
  if Taq_queues.total_packets t.queues < t.config.Taq_config.capacity_pkts
  then begin
    Taq_queues.enqueue t.queues Taq_queues.Below_fair_share ~priority:0 p;
    t.n_enqueued <- t.n_enqueued + 1;
    []
  end
  else begin
    Flow_tracker.observe_drop t.tracker p;
    count_drop t Taq_queues.Below_fair_share;
    [ p ]
  end

let enqueue t (p : Packet.t) =
  lazy_tick t;
  let degraded =
    match t.guard with Some g -> Overload.degraded g | None -> false
  in
  let drops =
    if degraded then enqueue_degraded t p
    else
      match p.kind with
      | Packet.Syn ->
          if t.checking then Hashtbl.replace t.chk_pools (pool_key p) ();
          enqueue_syn t p
      | Packet.Data -> enqueue_data t p
      | Packet.Ack | Packet.Syn_ack | Packet.Fin ->
          (* Control traffic on the forward path is rare in the evaluated
             topologies; queue it with normal priority, exempt from flow
             tracking. *)
          enqueue_with_pushout t p Taq_queues.Below_fair_share ~priority:0
  in
  if t.checking then verify t ~where:"enqueue";
  drops

let dequeue t =
  lazy_tick t;
  let r = Taq_queues.dequeue t.queues in
  (match r with Some _ -> t.n_dequeued <- t.n_dequeued + 1 | None -> ());
  if t.checking then verify t ~where:"dequeue";
  r

let disc t =
  {
    Disc.name = "taq";
    enqueue = (fun p -> enqueue t p);
    dequeue = (fun () -> dequeue t);
    dequeue_drops = Disc.no_dequeue_drops;
    length = (fun () -> Taq_queues.total_packets t.queues);
    bytes = (fun () -> Taq_queues.total_bytes t.queues);
  }

let tracker t = t.tracker

let admission t = t.admission

let guard t = t.guard

let queues t = t.queues

let stats t =
  {
    enqueued = t.n_enqueued;
    dropped = t.n_dropped;
    admission_rejected = t.n_admission_rejected;
    forced_recovery_drops = t.n_forced_recovery;
    restarts = t.n_restarts;
    drops_by_class =
      List.filter_map
        (fun cls ->
          let n = t.drop_counts.(Taq_queues.class_index cls) in
          if n > 0 then Some (cls, n) else None)
        Taq_queues.all_classes;
  }

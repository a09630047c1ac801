module Sim = Taq_engine.Sim
module Itbl = Taq_util.Int_tbl

type endpoints = {
  rtt_prop : float;
  deliver_fwd : Packet.t -> unit;
  deliver_rev : Packet.t -> unit;
}

type interceptor = Packet.t -> (Packet.t -> unit) -> unit

type t = {
  sim : Sim.t;
  link : Link.t;
  flows : endpoints Itbl.t;
  alloc : Packet.alloc;  (* per-network uid allocation + free list *)
  mutable next_flow : int;
  (* Fault-injection taps: interposers on the two delivery paths. The
     continuation re-resolves the flow at invocation time, so a tap
     that delays a packet cannot resurrect a finished flow.

     The taps also gate packet recycling: on an untapped path a
     delivered packet is dead the moment the endpoint callback returns
     and goes back to the pool; a tapped path may hold packets across
     simulated time (reorder, ack-delay) or forward one twice
     (duplication), so tapped deliveries are never released. *)
  mutable fwd_tap : interceptor option;
  mutable rev_tap : interceptor option;
  mutable rev_forward : Packet.t -> unit;  (* shared tap continuation *)
  (* In-flight slots for the access/return propagation stage: the
     packet parks in [pkts] and the delay event carries only the slot
     index (via {!Sim.schedule_after_i} with the shared [fwd_step] /
     [rev_step] actions) — no per-packet capturing closure. *)
  pdummy : Packet.t;
  mutable pkts : Packet.t array;
  mutable pfree : int array;
  mutable pfree_top : int;
  mutable pused : int;
  mutable fwd_step : int -> unit;
  mutable rev_step : int -> unit;
}

(* Never sent, never delivered, never released: fills unused slots so
   the table retains no real packet. *)
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

let pslot t p =
  let slot =
    if t.pfree_top > 0 then begin
      t.pfree_top <- t.pfree_top - 1;
      t.pfree.(t.pfree_top)
    end
    else begin
      let s = t.pused in
      if s = Array.length t.pkts then begin
        let cap = Array.length t.pkts in
        let ncap = Stdlib.max 16 (cap * 2) in
        let pkts = Array.make ncap t.pdummy in
        Array.blit t.pkts 0 pkts 0 cap;
        let pfree = Array.make ncap 0 in
        Array.blit t.pfree 0 pfree 0 t.pfree_top;
        t.pkts <- pkts;
        t.pfree <- pfree
      end;
      t.pused <- s + 1;
      s
    end
  in
  t.pkts.(slot) <- p;
  slot

let ptake t slot =
  let p = t.pkts.(slot) in
  t.pkts.(slot) <- t.pdummy;
  t.pfree.(t.pfree_top) <- slot;
  t.pfree_top <- t.pfree_top + 1;
  p

(* The flow's propagation RTT is split: a small fixed share ahead of the
   queue (sender access), the rest on the return path. The split has no
   observable effect (no other contention point), so we use 1/4 - 3/4,
   which keeps SYNs reaching an admission-controlling queue quickly. *)
let fwd_share = 0.25

let create ?check ~sim ~capacity_bps ?(link_delay = 0.0) ~disc () =
  (* By default the link shares the simulator's checker, so one
     instance aggregates counters for the whole network. *)
  let check = match check with Some c -> c | None -> Sim.check sim in
  let flows = Itbl.create 64 in
  let alloc = Packet.alloc () in
  let tref = ref None in
  let forward p =
    (* Itbl.find + Not_found rather than find_opt: the option would
       allocate on every delivered packet. *)
    match Itbl.find flows p.Packet.flow with
    | ep -> ep.deliver_fwd p
    | exception Not_found -> () (* flow finished; late packet evaporates *)
  in
  let deliver p =
    match !tref with
    | Some { fwd_tap = Some tap; _ } -> tap p forward
    | Some { fwd_tap = None; _ } | None ->
        forward p;
        (* Untapped delivery consumed the packet (endpoints must not
           retain it); recycle the record. *)
        Packet.release alloc p
  in
  let link =
    Link.create ~check ~sim ~capacity_bps ~prop_delay:link_delay ~disc
      ~release:(Packet.release alloc) ~deliver ()
  in
  let t =
    {
      sim;
      link;
      flows;
      alloc;
      next_flow = 0;
      fwd_tap = None;
      rev_tap = None;
      rev_forward = ignore;
      pdummy = dummy_packet ();
      pkts = [||];
      pfree = [||];
      pfree_top = 0;
      pused = 0;
      fwd_step = ignore;
      rev_step = ignore;
    }
  in
  t.rev_forward <-
    (fun p ->
      match Itbl.find t.flows p.Packet.flow with
      | ep -> ep.deliver_rev p
      | exception Not_found -> ());
  t.fwd_step <- (fun slot -> Link.send t.link (ptake t slot));
  t.rev_step <-
    (fun slot ->
      let p = ptake t slot in
      match t.rev_tap with
      | Some tap -> tap p t.rev_forward
      | None ->
          t.rev_forward p;
          Packet.release t.alloc p);
  tref := Some t;
  t

let register_flow t ~flow ~rtt_prop ~deliver_fwd ~deliver_rev =
  if Itbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Dumbbell.register_flow: flow %d exists" flow);
  Itbl.replace t.flows flow { rtt_prop; deliver_fwd; deliver_rev }

let unregister_flow t ~flow = Itbl.remove t.flows flow

let access_delay t flow =
  match Itbl.find t.flows flow with
  | ep -> ep.rtt_prop *. fwd_share
  | exception Not_found -> invalid_arg "Dumbbell: unknown flow"

let return_delay t flow =
  match Itbl.find t.flows flow with
  | ep -> ep.rtt_prop *. (1.0 -. fwd_share)
  | exception Not_found -> invalid_arg "Dumbbell: unknown flow"

let send_fwd t p =
  let d = access_delay t p.Packet.flow in
  Sim.schedule_after_i t.sim ~delay:d t.fwd_step (pslot t p)

let send_rev t p =
  let d = return_delay t p.Packet.flow in
  Sim.schedule_after_i t.sim ~delay:d t.rev_step (pslot t p)

let set_fwd_interceptor t tap = t.fwd_tap <- tap

let set_rev_interceptor t tap = t.rev_tap <- tap

let packet_alloc t = t.alloc

let next_flow_id t =
  t.next_flow <- t.next_flow + 1;
  t.next_flow

let link t = t.link

let sim t = t.sim

let flow_count t = Itbl.length t.flows

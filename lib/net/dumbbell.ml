module Sim = Taq_engine.Sim
module Itbl = Taq_util.Int_tbl

(* A registered flow: its endpoints and its own two lines. The
   flow's endpoints hold it and send without a lookup; the table maps
   the flow to it for the link's exit and for taps. *)
type port = {
  deliver_fwd : Packet.t -> unit;
  deliver_rev : Packet.t -> unit;
  access : Delay_line.t;  (* sender to the bottleneck queue *)
  return : Delay_line.t;  (* receiver back to the sender *)
  mutable registered : bool;
}

type interceptor = Packet.t -> (Packet.t -> unit) -> unit

(* Fault-injection taps: interposers on the two delivery paths. The
   continuation re-resolves the flow through the table at invocation
   time, so a tap that delays a packet cannot resurrect a finished
   flow.

   The taps also gate packet recycling: on an untapped path a delivered
   packet is dead the moment the endpoint callback returns and goes
   back to the pool; a tapped path may hold packets across simulated
   time (reorder, ack-delay) or forward one twice (duplication), so
   tapped deliveries are never released. *)
type taps = {
  mutable fwd : interceptor option;
  mutable rev : interceptor option;
}

type t = {
  sim : Sim.t;
  link : Link.t;
  flows : port Itbl.t;
  alloc : Packet.alloc;  (* per-network uid allocation + free list *)
  taps : taps;
  access_exit : Packet.t -> unit;  (* where every access line delivers *)
  backward : Packet.t -> unit;  (* a tapped return's continuation *)
  return_drop : Packet.t -> unit;  (* an unregistered flow's return line *)
  mutable next_flow : int;
}

(* The flow's propagation RTT is split: a small fixed share ahead of the
   queue (sender access), the rest on the return path. The split has no
   observable effect (no other contention point), so we use 1/4 - 3/4,
   which keeps SYNs reaching an admission-controlling queue quickly. *)
let fwd_share = 0.25

let create ?check ~sim ~capacity_bps ~disc () =
  (* By default the link shares the simulator's checker, so one
     instance aggregates counters for the whole network. *)
  let check = match check with Some c -> c | None -> Sim.check sim in
  let flows = Itbl.create 64 in
  let alloc = Packet.alloc () in
  let taps = { fwd = None; rev = None } in
  (* Itbl.find + Not_found rather than find_opt: the option would
     allocate on every delivered packet. A late packet to a finished
     flow evaporates. *)
  let forward p =
    match Itbl.find flows p.Packet.flow with
    | ep -> ep.deliver_fwd p
    | exception Not_found -> ()
  in
  let backward p =
    match Itbl.find flows p.Packet.flow with
    | ep -> ep.deliver_rev p
    | exception Not_found -> ()
  in
  (* Untapped delivery consumed the packet (endpoints must not retain
     it); recycle the record. *)
  let deliver p =
    match taps.fwd with
    | Some tap -> tap p forward
    | None ->
        forward p;
        Packet.release alloc p
  in
  let link =
    Link.create ~check ~sim ~capacity_bps ~disc
      ~release:(Packet.release alloc) ~deliver ()
  in
  {
    sim;
    link;
    flows;
    alloc;
    taps;
    access_exit = Link.send link;
    backward;
    return_drop =
      (fun p ->
        match taps.rev with
        | Some tap -> tap p backward
        | None -> Packet.release alloc p);
    next_flow = 0;
  }

(* A registered flow's return line hands its packets straight to the
   flow's endpoint, with no lookup. *)
let to_sender t deliver_rev p =
  match t.taps.rev with
  | Some tap -> tap p t.backward
  | None ->
      deliver_rev p;
      Packet.release t.alloc p

let register_flow t ~flow ~rtt_prop ~deliver_fwd ~deliver_rev =
  if Itbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Dumbbell.register_flow: flow %d exists" flow);
  let port =
    {
      deliver_fwd;
      deliver_rev;
      access =
        Delay_line.create t.sim ~delay:(rtt_prop *. fwd_share) t.access_exit;
      return =
        Delay_line.create t.sim
          ~delay:(rtt_prop *. (1.0 -. fwd_share))
          (fun p -> to_sender t deliver_rev p);
      registered = true;
    }
  in
  Itbl.replace t.flows flow port;
  port

(* A flow's lines stay on the calendar after [unregister_flow] and
   drain, then give their slots back: access packets still reach the
   link, return packets evaporate. *)
let unregister_flow t ~flow =
  match Itbl.find t.flows flow with
  | port ->
      Itbl.remove t.flows flow;
      port.registered <- false;
      Delay_line.close port.access ~deliver:t.access_exit;
      Delay_line.close port.return ~deliver:t.return_drop
  | exception Not_found -> ()

let unknown_flow () = invalid_arg "Dumbbell: unknown flow"

let send_fwd port p =
  if port.registered then Delay_line.send port.access p else unknown_flow ()

let send_rev port p =
  if port.registered then Delay_line.send port.return p else unknown_flow ()

let set_fwd_interceptor t tap = t.taps.fwd <- tap

let set_rev_interceptor t tap = t.taps.rev <- tap

let packet_alloc t = t.alloc

let next_flow_id t =
  t.next_flow <- t.next_flow + 1;
  t.next_flow

let link t = t.link

let sim t = t.sim

let flow_count t = Itbl.length t.flows

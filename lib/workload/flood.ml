module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Packet = Taq_net.Packet
module Prng = Taq_util.Prng

type kind = Syn_churn | One_packet | Pool_churn

let kind_name = function
  | Syn_churn -> "syn"
  | One_packet -> "data"
  | Pool_churn -> "pool"

let kind_of_string = function
  | "syn" -> Some Syn_churn
  | "data" -> Some One_packet
  | "pool" -> Some Pool_churn
  | _ -> None

(* 40 bytes: a bare TCP/IP header — the smallest packet that still
   costs the middlebox a flow-table entry. *)
let flood_pkt_size = 40

(* How long a flood flow's registration may outlive its packet: long
   enough for the packet to cross access delay + a saturated bottleneck
   queue, after which the endpoint entry is reclaimed even if the
   packet was dropped at the queue (drops never reach [deliver_fwd]). *)
let reclaim_after = 2.0

type t = {
  net : Dumbbell.t;
  prng : Prng.t;
  kind : kind;
  rate : float;
  at : float;
  duration : float;
  on_send : unit -> unit;
  mutable next_id : int;  (* flow (and pool-churn pool) id cursor *)
  mutable n_sent : int;
}

let sent t = t.n_sent

(* One flood arrival: a brand-new flow sends a single 40-byte packet
   and never speaks again. The flow is registered just long enough to
   cross the bottleneck — on delivery (or after [reclaim_after] for
   packets the queue dropped) it is unregistered, so the topology's
   endpoint map stays bounded no matter how long the flood runs.
   [unregister_flow] is idempotent, so the fallback firing after a
   normal delivery is harmless. *)
let inject t =
  let sim = Dumbbell.sim t.net in
  let flow = t.next_id in
  t.next_id <- t.next_id + 1;
  let pool = match t.kind with Pool_churn -> flow | _ -> -1 in
  let kind = match t.kind with One_packet -> Packet.Data | _ -> Packet.Syn in
  Dumbbell.register_flow t.net ~flow ~rtt_prop:0.05
    ~deliver_fwd:(fun _ -> Dumbbell.unregister_flow t.net ~flow)
    ~deliver_rev:(fun _ -> ());
  Sim.schedule_after sim ~delay:reclaim_after (fun () ->
      Dumbbell.unregister_flow t.net ~flow);
  let p =
    Packet.make
      ~alloc:(Dumbbell.packet_alloc t.net)
      ~flow ~pool ~kind ~seq:0 ~size:flood_pkt_size ~sent_at:(Sim.now sim) ()
  in
  Dumbbell.send_fwd t.net p;
  t.n_sent <- t.n_sent + 1;
  t.on_send ()

let rec arrival t ~at =
  let sim = Dumbbell.sim t.net in
  if at < t.at +. t.duration then
    Sim.schedule sim ~at (fun () ->
        inject t;
        arrival t ~at:(at +. Prng.exponential t.prng ~mean:(1.0 /. t.rate)))

let install ?(flow_base = 1_000_000) ?(on_send = fun () -> ()) ~net ~prng
    ~kind ~rate ~at ~duration () =
  if rate <= 0.0 then invalid_arg "Flood.install: rate";
  if duration < 0.0 then invalid_arg "Flood.install: duration";
  let t =
    { net; prng; kind; rate; at; duration; on_send; next_id = flow_base;
      n_sent = 0 }
  in
  (* First arrival at [at] exactly: deterministic flood onset; spacing
     beyond that is the seeded Poisson process. *)
  arrival t ~at;
  t

module Packet = Taq_net.Packet
module Deque = Taq_util.Deque

type flow_queue = {
  q : Packet.t Deque.t;
  mutable attained : int;  (* cumulative bytes served to this flow key *)
}

type state = {
  capacity : int;
  flows : (int, flow_queue) Hashtbl.t;
  mutable total : int;
  mutable bytes : int;
}

(* Flows beyond this many share per-flow state by hash. *)
let max_flows = 1024

let flow_key flow = flow mod max_flows

let get_queue st key =
  match Hashtbl.find_opt st.flows key with
  | Some fq -> fq
  | None ->
      let fq = { q = Deque.create (); attained = 0 } in
      Hashtbl.replace st.flows key fq;
      fq

(* Both selection scans use an explicit (metric, key) total order, so
   the result is independent of Hashtbl iteration order — determinism
   does not hinge on hashing internals. *)
let least_attained_backlogged st =
  let best = ref None in
  Hashtbl.iter
    (fun key fq ->
      if not (Deque.is_empty fq.q) then
        match !best with
        | None -> best := Some (key, fq)
        | Some (bkey, bfq) ->
            if
              fq.attained < bfq.attained
              || (fq.attained = bfq.attained && key < bkey)
            then best := Some (key, fq))
    st.flows;
  !best

let longest_queue st =
  let best = ref None in
  Hashtbl.iter
    (fun key fq ->
      let len = Deque.length fq.q in
      if len > 0 then
        match !best with
        | None -> best := Some (key, fq, len)
        | Some (bkey, _, blen) ->
            if len > blen || (len = blen && key < bkey) then
              best := Some (key, fq, len))
    st.flows;
  match !best with None -> None | Some (key, fq, _) -> Some (key, fq)

let create ~capacity_pkts () =
  if capacity_pkts <= 0 then invalid_arg "Las.create";
  let st =
    {
      capacity = capacity_pkts;
      flows = Hashtbl.create 64;
      total = 0;
      bytes = 0;
    }
  in
  let enqueue (p : Packet.t) =
    let drops =
      if st.total >= st.capacity then begin
        (* Per-flow fair dropping: evict the tail of the longest
           per-flow queue (even when it is the arrival's own flow) so
           buffer hogs pay for the overflow, not the next mouse in. *)
        match longest_queue st with
        | Some (_, fq) -> (
            match Deque.pop_back fq.q with
            | Some victim ->
                st.total <- st.total - 1;
                st.bytes <- st.bytes - victim.Packet.size;
                [ victim ]
            | None -> [ p ])
        | None -> [ p ]
      end
      else []
    in
    if List.exists (fun (d : Packet.t) -> d.uid = p.Packet.uid) drops then drops
    else begin
      let key = flow_key p.Packet.flow in
      let fq = get_queue st key in
      Deque.push_back fq.q p;
      st.total <- st.total + 1;
      st.bytes <- st.bytes + p.Packet.size;
      drops
    end
  in
  let dequeue () =
    match least_attained_backlogged st with
    | None -> None
    | Some (_, fq) -> (
        match Deque.pop_front fq.q with
        | None -> None
        | Some p ->
            fq.attained <- fq.attained + p.Packet.size;
            st.total <- st.total - 1;
            st.bytes <- st.bytes - p.Packet.size;
            Some p)
  in
  {
    Taq_net.Disc.name = "las";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> st.total);
    bytes = (fun () -> st.bytes);
  }

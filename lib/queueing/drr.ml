module Packet = Taq_net.Packet
module Deque = Taq_util.Deque

type flow_queue = {
  q : Packet.t Deque.t;
  mutable deficit : int;
  mutable active : bool;  (* on the round-robin list *)
}

type state = {
  quantum : int;
  capacity : int;
  flows : (int, flow_queue) Hashtbl.t;
  rr : int Queue.t;  (* round-robin order of backlogged flow keys *)
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
      let fq = { q = Deque.create (); deficit = 0; active = false } in
      Hashtbl.replace st.flows key fq;
      fq

let activate st key fq =
  if not fq.active then begin
    fq.active <- true;
    fq.deficit <- 0;
    Queue.add key st.rr
  end

let longest_queue st =
  let best = ref None and best_len = ref 0 in
  Hashtbl.iter
    (fun key fq ->
      if Deque.length fq.q > !best_len then begin
        best := Some (key, fq);
        best_len := Deque.length fq.q
      end)
    st.flows;
  !best

let create ?(quantum_bytes = 500) ~capacity_pkts () =
  if quantum_bytes <= 0 || capacity_pkts <= 0 then invalid_arg "Drr.create";
  let st =
    {
      quantum = quantum_bytes;
      capacity = capacity_pkts;
      flows = Hashtbl.create 64;
      rr = Queue.create ();
      total = 0;
      bytes = 0;
    }
  in
  let enqueue p =
    let drops =
      if st.total >= st.capacity then begin
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
      activate st key fq;
      drops
    end
  in
  let rec dequeue_round budget =
    (* Each call serves at most one packet; a flow whose deficit cannot
       cover its head packet moves to the back of the round with its
       deficit topped up. [budget] bounds the scan to one full pass
       plus slack so an adversarial state cannot loop. *)
    if budget = 0 || Queue.is_empty st.rr then None
    else begin
      let key = Queue.pop st.rr in
      match Hashtbl.find_opt st.flows key with
      | None -> dequeue_round (budget - 1)
      | Some fq -> (
          match Deque.peek_front fq.q with
          | None ->
              fq.active <- false;
              dequeue_round (budget - 1)
          | Some head ->
              fq.deficit <- fq.deficit + st.quantum;
              if fq.deficit >= head.Packet.size then begin
                ignore (Deque.pop_front fq.q);
                fq.deficit <- fq.deficit - head.Packet.size;
                st.total <- st.total - 1;
                st.bytes <- st.bytes - head.Packet.size;
                if Deque.is_empty fq.q then begin
                  fq.active <- false;
                  fq.deficit <- 0
                end
                else Queue.add key st.rr;
                Some head
              end
              else begin
                Queue.add key st.rr;
                dequeue_round (budget - 1)
              end)
    end
  in
  let dequeue () =
    if st.total = 0 then None
    else
      (* Worst case every active flow needs several quantum top-ups for
         a large packet; bound by active count times a generous factor. *)
      dequeue_round ((Queue.length st.rr * 8) + 8)
  in
  {
    Taq_net.Disc.name = "drr";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> st.total);
    bytes = (fun () -> st.bytes);
  }

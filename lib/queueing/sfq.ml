module Packet = Taq_net.Packet

type state = {
  buckets : Packet.t Queue.t array;
  mutable total : int;
  mutable bytes : int;
  mutable rr : int;  (* round-robin cursor *)
  capacity : int;
}

let hash_flow st flow =
  (* Knuth multiplicative hash. *)
  let h = flow * 2654435761 in
  (h lxor (h lsr 16)) land max_int mod Array.length st.buckets

let longest_bucket st =
  let best = ref 0 and best_len = ref (-1) in
  Array.iteri
    (fun i q ->
      if Queue.length q > !best_len then begin
        best := i;
        best_len := Queue.length q
      end)
    st.buckets;
  !best

let n_buckets = 128

let create ~capacity_pkts () =
  if capacity_pkts <= 0 then invalid_arg "Sfq.create";
  let st =
    {
      buckets = Array.init n_buckets (fun _ -> Queue.create ());
      total = 0;
      bytes = 0;
      rr = 0;
      capacity = capacity_pkts;
    }
  in
  let enqueue p =
    let dropped =
      if st.total >= st.capacity then begin
        (* Push-out from the longest bucket: the head of the longest
           per-flow queue is dropped and the arrival is accepted (even
           when the arrival's own bucket is the longest — it still
           replaces that bucket's stale head). *)
        let victim_bucket = longest_bucket st in
        let q = st.buckets.(victim_bucket) in
        match Queue.take_opt q with
        | None -> [ p ] (* capacity 0 corner *)
        | Some victim ->
            st.total <- st.total - 1;
            st.bytes <- st.bytes - victim.Packet.size;
            [ victim ]
      end
      else []
    in
    if List.exists (fun (d : Packet.t) -> d.uid = p.Packet.uid) dropped then
      dropped
    else begin
      let b = hash_flow st p.Packet.flow in
      Queue.add p st.buckets.(b);
      st.total <- st.total + 1;
      st.bytes <- st.bytes + p.Packet.size;
      dropped
    end
  in
  let dequeue () =
    if st.total = 0 then None
    else begin
      let n = Array.length st.buckets in
      let rec find i steps =
        if steps = 0 then None
        else if Queue.is_empty st.buckets.(i) then find ((i + 1) mod n) (steps - 1)
        else begin
          let p = Queue.take st.buckets.(i) in
          st.total <- st.total - 1;
          st.bytes <- st.bytes - p.Packet.size;
          (* Advance the cursor past this bucket for round-robin. *)
          st.rr <- (i + 1) mod n;
          Some p
        end
      in
      find st.rr n
    end
  in
  {
    Taq_net.Disc.name = "sfq";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> st.total);
    bytes = (fun () -> st.bytes);
  }

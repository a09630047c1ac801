module Packet = Taq_net.Packet

type params = {
  capacity_pkts : int;
  min_th : float;
  max_th : float;
  max_p : float;
  weight : float;
}

let default_params ~capacity_pkts =
  let min_th = Float.max 1.0 (float_of_int capacity_pkts /. 4.0) in
  {
    capacity_pkts;
    min_th;
    max_th = 3.0 *. min_th;
    max_p = 0.1;
    weight = 0.002;
  }

type state = {
  params : params;
  prng : Taq_util.Prng.t;
  ring : Peek_ring.t;
  mutable avg : float;
  mutable count : int;  (* packets since last drop, for RED spacing *)
}

let update_avg st =
  let qlen = float_of_int (Peek_ring.length st.ring) in
  st.avg <- ((1.0 -. st.params.weight) *. st.avg) +. (st.params.weight *. qlen)

let drop_probability st =
  let { min_th; max_th; max_p; _ } = st.params in
  if st.avg < min_th then 0.0
  else if st.avg >= max_th then 1.0
  else begin
    let pb = max_p *. (st.avg -. min_th) /. (max_th -. min_th) in
    let denom = 1.0 -. (float_of_int st.count *. pb) in
    if denom <= 0.0 then 1.0 else Float.min 1.0 (pb /. denom)
  end

let create ~capacity_pkts ~prng () =
  let params = default_params ~capacity_pkts in
  let st =
    {
      params;
      prng;
      ring = Peek_ring.create ~capacity_pkts;
      avg = 0.0;
      count = 0;
    }
  in
  let accept p =
    st.count <- st.count + 1;
    Peek_ring.push st.ring p;
    []
  in
  let enqueue (p : Packet.t) =
    update_avg st;
    if Peek_ring.length st.ring >= params.capacity_pkts then begin
      st.count <- 0;
      [ p ]
    end
    else if st.avg >= params.min_th && Peek_ring.length st.ring > 0 then begin
      (* The CHOKe step: compare the arrival against one random queued
         packet; a flow match drops both without touching RED state
         beyond the spacing counter. *)
      let slot = Peek_ring.peek_random st.ring ~prng:st.prng in
      let candidate = Peek_ring.get st.ring slot in
      if candidate.Packet.flow = p.Packet.flow then begin
        let victim = Peek_ring.remove st.ring slot in
        st.count <- 0;
        [ victim; p ]
      end
      else begin
        let pd = drop_probability st in
        if pd > 0.0 && Taq_util.Prng.bernoulli st.prng ~p:pd then begin
          st.count <- 0;
          [ p ]
        end
        else accept p
      end
    end
    else begin
      let pd = drop_probability st in
      if pd > 0.0 && Taq_util.Prng.bernoulli st.prng ~p:pd then begin
        st.count <- 0;
        [ p ]
      end
      else accept p
    end
  in
  let dequeue () = Peek_ring.pop st.ring in
  {
    Taq_net.Disc.name = "choke";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> Peek_ring.length st.ring);
    bytes = (fun () -> Peek_ring.bytes st.ring);
  }

module Packet = Taq_net.Packet

type params = {
  min_th : float;
  max_th : float;
  max_p : float;
  weight : float;
}

let default_params ~capacity_pkts =
  let min_th = Float.max 1.0 (float_of_int capacity_pkts /. 4.0) in
  { min_th; max_th = 3.0 *. min_th; max_p = 0.1; weight = 0.002 }

type state = {
  params : params;
  now : unit -> float;
  prng : Taq_util.Prng.t;
  q : Packet.t Queue.t;
  mutable bytes : int;
  mutable avg : float;
  mutable count : int;  (* packets since last drop *)
  mutable idle_since : float;  (* < 0 when not idle *)
  mutable last_dequeue : float;  (* for the service-time estimate *)
  mutable mean_pkt_time : float;  (* smoothed service time, drives the
                                     idle-period average decay *)
}

let update_avg st =
  let qlen = float_of_int (Queue.length st.q) in
  if st.idle_since >= 0.0 && qlen = 0.0 then begin
    (* Queue was idle: decay the average as if empty-slots went by. *)
    let idle = st.now () -. st.idle_since in
    let m =
      if st.mean_pkt_time > 0.0 then idle /. st.mean_pkt_time else 0.0
    in
    st.avg <- st.avg *. ((1.0 -. st.params.weight) ** m);
    st.idle_since <- -1.0
  end;
  st.avg <- ((1.0 -. st.params.weight) *. st.avg) +. (st.params.weight *. qlen)

let drop_probability st =
  let { min_th; max_th; max_p; _ } = st.params in
  if st.avg < min_th then 0.0
  else if st.avg >= max_th then 1.0
  else begin
    let pb = max_p *. (st.avg -. min_th) /. (max_th -. min_th) in
    (* Inter-drop spacing correction. *)
    let denom = 1.0 -. (float_of_int st.count *. pb) in
    if denom <= 0.0 then 1.0 else Float.min 1.0 (pb /. denom)
  end

let create ?params ~capacity_pkts ~now ~prng () =
  let params =
    match params with Some p -> p | None -> default_params ~capacity_pkts
  in
  let st =
    {
      params;
      now;
      prng;
      q = Queue.create ();
      bytes = 0;
      avg = 0.0;
      count = 0;
      idle_since = 0.0;
      last_dequeue = nan;
      mean_pkt_time = 0.001;
    }
  in
  let accept p =
    Queue.add p st.q;
    st.bytes <- st.bytes + p.Packet.size;
    []
  in
  let enqueue p =
    update_avg st;
    if Queue.length st.q >= capacity_pkts then begin
      st.count <- 0;
      [ p ]
    end
    else begin
      let pd = drop_probability st in
      if pd > 0.0 && Taq_util.Prng.bernoulli st.prng ~p:pd then begin
        st.count <- 0;
        [ p ]
      end
      else begin
        st.count <- st.count + 1;
        accept p
      end
    end
  in
  let dequeue () =
    match Queue.take_opt st.q with
    | None -> None
    | Some p ->
        st.bytes <- st.bytes - p.Packet.size;
        let now = st.now () in
        (* Smooth the inter-dequeue interval into a service-time
           estimate; back-to-back dequeues while the link drains a
           backlog approximate the transmission time. *)
        if not (Float.is_nan st.last_dequeue) then begin
          let interval = now -. st.last_dequeue in
          if interval > 0.0 && interval < 1.0 then
            st.mean_pkt_time <-
              (0.9 *. st.mean_pkt_time) +. (0.1 *. interval)
        end;
        st.last_dequeue <- now;
        if Queue.is_empty st.q then st.idle_since <- now;
        Some p
  in
  {
    Taq_net.Disc.name = "red";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> Queue.length st.q);
    bytes = (fun () -> st.bytes);
  }

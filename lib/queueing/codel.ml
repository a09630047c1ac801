module Packet = Taq_net.Packet

type params = { target : float; interval : float }

let default_params = { target = 0.05; interval = 0.5 }

type state = {
  params : params;
  now : unit -> float;
  q : (float * Packet.t) Queue.t;  (* (enqueue time, packet) *)
  mutable bytes : int;
  mutable maxpacket : int;  (* largest packet seen: the MTU guard *)
  mutable first_above : float;  (* 0 = sojourn not persistently above *)
  mutable drop_next : float;  (* next scheduled drop while dropping *)
  mutable count : int;  (* drops in the current dropping state *)
  mutable lastcount : int;
  mutable dropping : bool;
  mutable reaped : Packet.t list;  (* dequeue-time drops, newest first *)
}

let control_law st t = t +. (st.params.interval /. sqrt (float_of_int st.count))

(* Pop the head and decide whether CoDel would be allowed to drop it:
   sojourn below target (or queue under one MTU) resets the
   persistently-above clock; otherwise the clock must have been armed
   a full interval ago. Mirrors the dodequeue of the reference
   pseudocode. *)
let dodequeue st now =
  match Queue.take_opt st.q with
  | None ->
      st.first_above <- 0.0;
      (None, false)
  | Some (t0, p) ->
      st.bytes <- st.bytes - p.Packet.size;
      let sojourn = now -. t0 in
      if sojourn < st.params.target || st.bytes <= st.maxpacket then begin
        st.first_above <- 0.0;
        (Some p, false)
      end
      else if st.first_above = 0.0 then begin
        st.first_above <- now +. st.params.interval;
        (Some p, false)
      end
      else (Some p, now >= st.first_above)

let create ?params ~capacity_pkts ~now () =
  let params = Option.value params ~default:default_params in
  let st =
    {
      params;
      now;
      q = Queue.create ();
      bytes = 0;
      maxpacket = 0;
      first_above = 0.0;
      drop_next = 0.0;
      count = 0;
      lastcount = 0;
      dropping = false;
      reaped = [];
    }
  in
  let enqueue (p : Packet.t) =
    if Queue.length st.q >= capacity_pkts then [ p ]
    else begin
      if p.Packet.size > st.maxpacket then st.maxpacket <- p.Packet.size;
      Queue.add (st.now (), p) st.q;
      st.bytes <- st.bytes + p.Packet.size;
      []
    end
  in
  let drop p = st.reaped <- p :: st.reaped in
  let dequeue () =
    let now = st.now () in
    let first, first_ok = dodequeue st now in
    let ret = ref first in
    if st.dropping then begin
      if not first_ok then st.dropping <- false
      else begin
        (* Inside the dropping state: discard heads and reschedule by
           the 1/sqrt(count) law until the sojourn recovers or the next
           drop time moves past now. *)
        let continue = ref (now >= st.drop_next) in
        while !continue do
          match !ret with
          | None ->
              st.dropping <- false;
              continue := false
          | Some victim ->
              drop victim;
              st.count <- st.count + 1;
              let np, ok = dodequeue st now in
              ret := np;
              if not ok then begin
                st.dropping <- false;
                continue := false
              end
              else begin
                st.drop_next <- control_law st st.drop_next;
                continue := now >= st.drop_next
              end
        done
      end
    end
    else if first_ok then begin
      (* Entering the dropping state: discard this head, serve the
         next, and — if we were dropping recently — resume at a
         tightened rate rather than restarting the count from 1 (the
         "count memory" refinement of the reference implementation). *)
      (match !ret with Some victim -> drop victim | None -> ());
      let np, _ = dodequeue st now in
      ret := np;
      st.dropping <- true;
      let delta = st.count - st.lastcount in
      st.count <-
        (if delta > 1 && now -. st.drop_next < 16.0 *. params.interval then
           delta
         else 1);
      st.drop_next <- control_law st now;
      st.lastcount <- st.count
    end;
    !ret
  in
  let dequeue_drops () =
    match st.reaped with
    | [] -> []
    | l ->
        st.reaped <- [];
        List.rev l
  in
  {
    Taq_net.Disc.name = "codel";
    enqueue;
    dequeue;
    dequeue_drops;
    length = (fun () -> Queue.length st.q);
    bytes = (fun () -> st.bytes);
  }

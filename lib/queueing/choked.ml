module Packet = Taq_net.Packet

type params = {
  capacity_pkts : int;
  threshold : float;
  candidates : int;
}

let default_params ~capacity_pkts =
  { capacity_pkts; threshold = 0.5; candidates = 2 }

let create ~capacity_pkts ~prng () =
  let params = default_params ~capacity_pkts in
  if params.candidates <= 0 || params.threshold < 0.0 then
    invalid_arg "Choked.create";
  let ring = Peek_ring.create ~capacity_pkts in
  let armed_at =
    (* Instantaneous occupancy (packets) at which the match test arms. *)
    Stdlib.max 1
      (int_of_float
         (Float.round (params.threshold *. float_of_int params.capacity_pkts)))
  in
  (* Draw up to [candidates] random queued packets and evict those that
     share [flow]. Slot ids die on mutation, so each matched candidate
     is removed before the next draw; duplicates are impossible because
     a removed slot can't be drawn live again. *)
  let evict_matches flow =
    let victims = ref [] in
    for _ = 1 to params.candidates do
      if Peek_ring.length ring > 0 then begin
        let slot = Peek_ring.peek_random ring ~prng in
        if (Peek_ring.get ring slot).Packet.flow = flow then
          victims := Peek_ring.remove ring slot :: !victims
      end
    done;
    !victims
  in
  let enqueue (p : Packet.t) =
    let live = Peek_ring.length ring in
    if live >= params.capacity_pkts then begin
      let victims = evict_matches p.Packet.flow in
      match victims with
      | _ :: _ -> victims @ [ p ]
      | [] ->
          (* Full and unmatched: random push-out rather than tail-drop,
             so overflow loss lands on flows in proportion to the
             buffer they hold. *)
          let slot = Peek_ring.peek_random ring ~prng in
          let victim = Peek_ring.remove ring slot in
          Peek_ring.push ring p;
          [ victim ]
    end
    else if live >= armed_at then begin
      let victims = evict_matches p.Packet.flow in
      match victims with
      | _ :: _ -> victims @ [ p ]
      | [] ->
          Peek_ring.push ring p;
          []
    end
    else begin
      Peek_ring.push ring p;
      []
    end
  in
  let dequeue () = Peek_ring.pop ring in
  {
    Taq_net.Disc.name = "choked";
    enqueue;
    dequeue;
    dequeue_drops = Taq_net.Disc.no_dequeue_drops;
    length = (fun () -> Peek_ring.length ring);
    bytes = (fun () -> Peek_ring.bytes ring);
  }

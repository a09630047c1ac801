module Packet = Taq_net.Packet
module Link = Taq_net.Link

type t = { mutable drops : int; mutable accepted : int }

(* Only data packets count, so the rate matches the model's
   per-data-packet [p]. *)
let is_data (p : Packet.t) =
  match p.kind with
  | Packet.Data -> true
  | Packet.Syn | Packet.Syn_ack | Packet.Ack | Packet.Fin -> false

let attach link =
  let t = { drops = 0; accepted = 0 } in
  Link.on_drop link (fun p -> if is_data p then t.drops <- t.drops + 1);
  Link.on_enqueue link (fun p ->
      if is_data p then t.accepted <- t.accepted + 1);
  t

let overall_rate t =
  let n = t.drops + t.accepted in
  if n = 0 then 0.0 else float_of_int t.drops /. float_of_int n

let drops t = t.drops

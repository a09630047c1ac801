module Packet = Taq_net.Packet
module Link = Taq_net.Link

type event_kind = Enqueued | Dropped | Delivered

type event = {
  time : float;
  kind : event_kind;
  packet_kind : Packet.kind;
  flow : int;
  seq : int;
  size : int;
}

type t = {
  capacity : int;
  buf : event Taq_util.Deque.t;
  mutable discarded : int;
}

let record t ~now kind (p : Packet.t) =
  if Taq_util.Deque.length t.buf >= t.capacity then begin
    ignore (Taq_util.Deque.pop_front t.buf);
    t.discarded <- t.discarded + 1
  end;
  Taq_util.Deque.push_back t.buf
    {
      time = now;
      kind;
      packet_kind = p.Packet.kind;
      flow = p.Packet.flow;
      seq = p.Packet.seq;
      size = p.Packet.size;
    }

let attach ?(capacity = 1_000_000) ~now link =
  if capacity < 1 then invalid_arg "Packet_log.attach: capacity";
  let t = { capacity; buf = Taq_util.Deque.create (); discarded = 0 } in
  Link.on_enqueue link (fun p -> record t ~now:(now ()) Enqueued p);
  Link.on_drop link (fun p -> record t ~now:(now ()) Dropped p);
  Link.on_deliver link (fun p -> record t ~now:(now ()) Delivered p);
  t

let events t =
  let acc = ref [] in
  Taq_util.Deque.iter (fun e -> acc := e :: !acc) t.buf;
  List.rev !acc

let count t = Taq_util.Deque.length t.buf

let dropped_events t = t.discarded

let kind_to_string = function
  | Enqueued -> "enqueue"
  | Dropped -> "drop"
  | Delivered -> "deliver"

let save_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time,event,packet_kind,flow,seq,size\n";
      Taq_util.Deque.iter
        (fun e ->
          Printf.fprintf oc "%.6f,%s,%s,%d,%d,%d\n" e.time
            (kind_to_string e.kind)
            (Packet.kind_to_string e.packet_kind)
            e.flow e.seq e.size)
        t.buf)

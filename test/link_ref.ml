(* Reference serializer for the link's exit: one transmission at a
   time from a FIFO, each taking [size * 8 / capacity] seconds, and the
   exit a zero-delay [Delay_line] filed at the completion, before the
   next transmission starts. [Link] delivers inside the completion's
   own event when it can, and its deliveries must run exactly where
   this line's do among the instant's other events. No disc, drops or
   accounting. *)

open Taq_net
module Sim = Taq_engine.Sim

type t = {
  sim : Sim.t;
  capacity_bps : float;
  queue : Packet.t Queue.t;
  exit : Delay_line.t;
  mutable busy : bool;
}

let create sim ~capacity_bps deliver =
  {
    sim;
    capacity_bps;
    queue = Queue.create ();
    exit = Delay_line.create sim ~delay:0.0 deliver;
    busy = false;
  }

let rec start t =
  if not t.busy then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some p ->
        t.busy <- true;
        Sim.schedule_after t.sim
          ~delay:(float_of_int (p.Packet.size * 8) /. t.capacity_bps)
          (fun () ->
            t.busy <- false;
            Delay_line.send t.exit p;
            start t)

let send t p =
  Queue.push p t.queue;
  start t

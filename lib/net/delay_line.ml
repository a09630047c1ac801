module Sim = Taq_engine.Sim

(* A FIFO stage in which every packet waits the same fixed delay: the
   link's propagation, and each flow's access and return legs.

   Packets wait in a ring, and every calendar entry a line files runs
   the line's one [pop] action, which takes the ring's head. That head
   is the packet the entry was filed for, because a line's entries fire
   in the order they were filed:

   - every packet on a line waits the same [delay], and [now] never
     decreases. Rounding is monotone, so the due times [now +. delay]
     never decrease in send order;
   - the calendar breaks time ties in scheduling order: by seq on the
     heap, first in first out in the same-instant lane, and a heap entry
     due now precedes every lane entry.

   A line with delay 0 runs through the lane. DESIGN.md ("Delay lines")
   has the argument at length. *)

type t = {
  sim : Sim.t;
  delay : float;  (* boxed once here, so [send] boxes nothing *)
  deliver : Packet.t -> unit;
  mutable ring : Packet.t array;  (* empty, or a power-of-two size *)
  mutable head : int;
  mutable len : int;
  pop : unit -> unit;  (* the action of every entry this line files *)
}

(* Called with the ring full: double it, from 4 cells, and fill the
   vacant cells with the dummy so no delivered packet stays
   reachable. *)
let grow line =
  let cap = Array.length line.ring in
  let ring = Array.make (Stdlib.max 4 (cap * 2)) Packet.dummy in
  for i = 0 to line.len - 1 do
    ring.(i) <- line.ring.((line.head + i) land (cap - 1))
  done;
  line.ring <- ring;
  line.head <- 0

let pop line =
  let ring = line.ring in
  let p = ring.(line.head) in
  ring.(line.head) <- Packet.dummy;
  line.head <- (line.head + 1) land (Array.length ring - 1);
  line.len <- line.len - 1;
  line.deliver p

let create sim ~delay deliver =
  let rec line =
    {
      sim;
      delay;
      deliver;
      ring = [||];
      head = 0;
      len = 0;
      pop = (fun () -> pop line);
    }
  in
  line

(* Files the entry first: a NaN delay raises with the ring intact. *)
let send line p =
  Sim.schedule_after line.sim ~delay:line.delay line.pop;
  if line.len = Array.length line.ring then grow line;
  let ring = line.ring in
  ring.((line.head + line.len) land (Array.length ring - 1)) <- p;
  line.len <- line.len + 1

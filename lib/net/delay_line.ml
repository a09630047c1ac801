module Sim = Taq_engine.Sim

(* A FIFO stage in which every packet waits the same fixed delay: each
   flow's access and return legs.

   Packets wait in a ring, and every calendar entry a line files runs
   the line's one [pop] action, which takes the ring's head. That head
   is the packet the entry was filed for, because a line's entries fire
   in the order they were filed:

   - every packet on a line waits the same [delay], and [now] never
     decreases. Rounding is monotone, so the due times [now +. delay]
     never decrease in send order;
   - the calendar breaks time ties in scheduling order: by seq on the
     heaps, first in first out in the same-instant lane, and a heap
     entry due now precedes every lane entry.

   A line with delay 0 runs through the lane. DESIGN.md ("Delay lines")
   has the argument at length.

   [pop] owns a calendar slot ([Sim.own]) from the line's first send
   until the line is closed and drained. Its pending entries are
   exactly the packets in the ring, so once the ring is empty nothing
   refers to the slot and it goes back.

   A vacated ring cell keeps the packet that left it until a send
   overwrites it. Nothing reads it, and the owning network's pool
   keeps a released packet alive anyway, so clearing it would only
   cost a pointer store per hop. On a tapped path, whose deliveries
   are never released, that is at most one stale packet per cell. *)

type t = {
  sim : Sim.t;
  delay : float;  (* boxed once here, so [send] boxes nothing *)
  mutable deliver : Packet.t -> unit;
  mutable ring : Packet.t array;  (* empty, or a power-of-two size *)
  mutable head : int;
  mutable len : int;
  mutable slot : int;
      (* the slot [pop] owns; -1 before the first send and after the
         last delivery of a closed line *)
  mutable closed : bool;
}

(* Called with the ring full: double it, from 4 cells. *)
let[@inline never] grow line =
  let cap = Array.length line.ring in
  let ring = Array.make (Int.max 4 (cap * 2)) Packet.dummy in
  for i = 0 to line.len - 1 do
    ring.(i) <- line.ring.((line.head + i) land (cap - 1))
  done;
  line.ring <- ring;
  line.head <- 0

let give_back line =
  Sim.give_back line.sim line.slot;
  line.slot <- -1

let pop line =
  let ring = line.ring in
  let p = ring.(line.head) in
  line.head <- (line.head + 1) land (Array.length ring - 1);
  line.len <- line.len - 1;
  if line.len = 0 && line.closed then give_back line;
  line.deliver p

let create sim ~delay deliver =
  {
    sim;
    delay;
    deliver;
    ring = [||];
    head = 0;
    len = 0;
    slot = -1;
    closed = false;
  }

(* The entries' action is made here, on the first send: a line that
   never sends costs no closure. *)
let[@inline never] take_slot line =
  if line.closed then invalid_arg "Delay_line.send: the line is closed";
  line.slot <- Sim.own line.sim (fun () -> pop line)

(* Files the entry first: a NaN delay raises with the ring intact. *)
let send line p =
  if line.slot < 0 then take_slot line;
  Sim.hop line.sim line.slot ~delay:line.delay;
  if line.len = Array.length line.ring then grow line;
  let ring = line.ring in
  ring.((line.head + line.len) land (Array.length ring - 1)) <- p;
  line.len <- line.len + 1

let close line ~deliver =
  line.closed <- true;
  line.deliver <- deliver;
  if line.len = 0 && line.slot >= 0 then give_back line

module Packet = Taq_net.Packet

type class_ =
  | Recovery
  | New_flow
  | Over_penalized
  | Below_fair_share
  | Above_fair_share

let class_to_string = function
  | Recovery -> "recovery"
  | New_flow -> "new-flow"
  | Over_penalized -> "over-penalized"
  | Below_fair_share -> "below-fair-share"
  | Above_fair_share -> "above-fair-share"

let class_index = function
  | Recovery -> 0
  | New_flow -> 1
  | Over_penalized -> 2
  | Below_fair_share -> 3
  | Above_fair_share -> 4

(* One class queue: a power-of-two ring of packets with a parallel
   priority array, kept sorted by priority descending with arrival
   order among equal priorities. An insert shifts only the strictly
   lower-priority tail one cell back, so an entry that ranks last
   appends in O(1): a FIFO class files everything at priority 0, so
   every insert appends. The head is served and the tail, lowest
   priority and newest, pushed out in O(1). Grown by doubling, on
   first use. A vacated cell keeps its packet until overwritten; it is
   never read. *)
type ring = {
  mutable prio : int array;
  mutable pkt : Packet.t array;
  mutable head : int;
  mutable len : int;
}

(* The token bucket bounding Recovery's link share. All floats, so
   refills and spends store in place without boxing. *)
type bucket = {
  mutable tokens : float;  (* bytes *)
  mutable tokens_at : float;
  rate : float;  (* bytes per second *)
  burst : float;
}

(* A push-out's per-flow packet counts: an open-addressing table of
   flows with linear probing, a power of two at least twice the ring it
   counts, grown on first use. A cell is live only while it carries the
   current generation's stamp, so each count starts empty without
   clearing anything. *)
type tally = {
  mutable flows : int array;
  mutable counts : int array;
  mutable stamps : int array;
  mutable gen : int;
}

type t = {
  clock : float array;  (* [Sim.clock]: the time is cell 0 *)
  rings : ring array;  (* by [class_index]: 0 Recovery, 4 AboveFairShare *)
  bucket : bucket;
  mutable bytes : int;
  mutable packets : int;
  tally : tally;  (* scratch for [pop_fattest_flow] *)
}

let create ~config ~clock =
  let rate =
    config.Taq_config.recovery_share *. config.Taq_config.capacity_bps /. 8.0
  in
  {
    clock;
    rings =
      Array.init 5 (fun _ -> { prio = [||]; pkt = [||]; head = 0; len = 0 });
    bucket =
      {
        tokens = 0.0;
        tokens_at = clock.(0);
        rate;
        (* A small burst allowance so single retransmissions are never
           blocked by quantization. *)
        burst = Float.max 3000.0 (rate *. 0.25);
      };
    bytes = 0;
    packets = 0;
    tally = { flows = [||]; counts = [||]; stamps = [||]; gen = 0 };
  }

let refill_tokens t =
  let b = t.bucket and now = t.clock.(0) in
  let dt = now -. b.tokens_at in
  if dt > 0.0 then begin
    (* [Float.min b.burst]: token sums are finite and not nan, so a
       plain comparison gives the same float. *)
    let tokens = b.tokens +. (dt *. b.rate) in
    b.tokens <- (if tokens > b.burst then b.burst else tokens);
    b.tokens_at <- now
  end

(* Take the tokens [p] costs, if the bucket holds them. *)
let spend b (p : Packet.t) =
  let size = float_of_int p.size in
  if b.tokens >= size then begin
    b.tokens <- b.tokens -. size;
    true
  end
  else false

(* The ring's [i]-th entry from the head. *)
let[@inline] cell r i = (r.head + i) land (Array.length r.pkt - 1)

let[@inline never] grow r p =
  let n = Int.max 16 (2 * Array.length r.pkt) in
  let prio = Array.make n 0 and pkt = Array.make n p in
  for i = 0 to r.len - 1 do
    let c = cell r i in
    prio.(i) <- r.prio.(c);
    pkt.(i) <- r.pkt.(c)
  done;
  r.prio <- prio;
  r.pkt <- pkt;
  r.head <- 0

let insert r prio p =
  if r.len = Array.length r.pkt then grow r p;
  let prios = r.prio and pkts = r.pkt in
  (* [i] runs back from the tail over the entries [prio] outranks. *)
  let i = ref r.len in
  while !i > 0 && prios.(cell r (!i - 1)) < prio do
    let src = cell r (!i - 1) and dst = cell r !i in
    prios.(dst) <- prios.(src);
    pkts.(dst) <- pkts.(src);
    decr i
  done;
  let c = cell r !i in
  prios.(c) <- prio;
  pkts.(c) <- p;
  r.len <- r.len + 1

(* Pops return [Packet.dummy] from an empty ring. *)
let pop_head r =
  if r.len = 0 then Packet.dummy
  else begin
    let p = r.pkt.(r.head) in
    r.head <- cell r 1;
    r.len <- r.len - 1;
    p
  end

let pop_tail r =
  if r.len = 0 then Packet.dummy
  else begin
    r.len <- r.len - 1;
    r.pkt.(cell r r.len)
  end

(* Remove the [k]-th entry from the head: the entries behind it close
   the gap and keep their order. *)
let remove_at r k =
  let p = r.pkt.(cell r k) in
  for j = k to r.len - 2 do
    let dst = cell r j and src = cell r (j + 1) in
    r.prio.(dst) <- r.prio.(src);
    r.pkt.(dst) <- r.pkt.(src)
  done;
  r.len <- r.len - 1;
  p

let enqueue t cls ~priority (p : Packet.t) =
  t.bytes <- t.bytes + p.size;
  t.packets <- t.packets + 1;
  match cls with
  | Recovery -> insert t.rings.(0) priority p
  | New_flow | Over_penalized | Below_fair_share | Above_fair_share ->
      insert t.rings.(class_index cls) 0 p

let all_classes =
  [ Recovery; New_flow; Over_penalized; Below_fair_share; Above_fair_share ]

let class_length t cls = t.rings.(class_index cls).len

let class_bytes t cls =
  let r = t.rings.(class_index cls) in
  let sum = ref 0 in
  for i = 0 to r.len - 1 do
    sum := !sum + r.pkt.(cell r i).Packet.size
  done;
  !sum

let recovery_sorted t =
  let r = t.rings.(0) in
  let sorted = ref true in
  for i = 1 to r.len - 1 do
    if r.prio.(cell r (i - 1)) < r.prio.(cell r i) then sorted := false
  done;
  !sorted

let total_packets t = t.packets

let total_bytes t = t.bytes

(* Level 2: the index of the first of NewFlow, OverPenalized and
   BelowFairShare holding the most packets, or 0 when all three are
   empty. *)
let level2 t =
  let n = t.rings.(1).len
  and o = t.rings.(2).len
  and b = t.rings.(3).len in
  if n >= o && n >= b then if n > 0 then 1 else 0
  else if o >= b then 2
  else 3

let dequeue t =
  refill_tokens t;
  let recovery = t.rings.(0) in
  let p =
    (* Level 1: recovery, when the token bucket allows. *)
    if recovery.len > 0 && spend t.bucket recovery.pkt.(recovery.head) then
      pop_head recovery
    else
      let l = level2 t in
      if l > 0 then pop_head t.rings.(l)
      else if t.rings.(4).len > 0 then pop_head t.rings.(4)
      else
        (* Recovery holds the only packets but has no tokens: stay work
           conserving rather than idle the link. *)
        pop_head recovery
  in
  if p == Packet.dummy then None
  else begin
    t.bytes <- t.bytes - p.size;
    t.packets <- t.packets - 1;
    Some p
  end

let select_victim t =
  if t.rings.(4).len > 0 then Some Above_fair_share
  else
    match level2 t with
    | 1 -> Some New_flow
    | 2 -> Some Over_penalized
    | 3 -> Some Below_fair_share
    | _ -> if t.rings.(0).len > 0 then Some Recovery else None

(* The flow's cell in the tally: its live cell, or the empty cell where
   it belongs. *)
let[@inline] tally_cell s flow =
  let mask = Array.length s.stamps - 1 in
  let i = ref (flow land mask) in
  while s.stamps.(!i) = s.gen && s.flows.(!i) <> flow do
    i := (!i + 1) land mask
  done;
  !i

(* Among equally fat flows, the one a polymorphic [Hashtbl] of 16
   initial buckets lists first once the ring's [distinct] flows are
   added in ring order, as the counts table this scan replaced did:
   the lowest bucket, [Hashtbl.hash flow] modulo the bucket count, and
   within a bucket the flow first seen latest, since an add conses at
   the head and a resize keeps the order. The table doubles its 16
   buckets whenever it holds more than twice as many flows. Walks the
   ring in first-seen order and hashes only the [best]-packet flows. *)
let tie_break s r ~best ~distinct =
  let buckets = ref 16 in
  while 2 * !buckets < distinct do
    buckets := 2 * !buckets
  done;
  let victim = ref (-1) and lowest = ref max_int in
  for i = 0 to r.len - 1 do
    let flow = r.pkt.(cell r i).Packet.flow in
    let c = tally_cell s flow in
    if s.counts.(c) = best then begin
      (* Its first packet: later ones find the count cleared. *)
      s.counts.(c) <- 0;
      let b = Hashtbl.hash flow land (!buckets - 1) in
      if b <= !lowest then begin
        lowest := b;
        victim := flow
      end
    end
  done;
  !victim

(* Remove the newest packet of the flow holding the most packets in the
   ring. Spreading push-out victims across flows this way avoids
   wiping out a small flow's entire 1–2 packet burst in one buffer
   overflow — the correlated loss that turns a simple timeout into a
   repetitive one. Queues are buffer-bounded, so the scan is cheap:
   one pass counts the ring and finds the largest count and how many
   flows share it, and only a tie walks the ring again. *)
let pop_fattest_flow t r =
  if r.len = 0 then Packet.dummy
  else begin
    let s = t.tally in
    if Array.length s.stamps < 2 * r.len then begin
      let n = ref 16 in
      while !n < 2 * r.len do
        n := 2 * !n
      done;
      s.flows <- Array.make !n 0;
      s.counts <- Array.make !n 0;
      s.stamps <- Array.make !n 0
    end;
    s.gen <- s.gen + 1;
    let best = ref 0 and ties = ref 0 and fattest = ref (-1) in
    let distinct = ref 0 in
    for i = 0 to r.len - 1 do
      let flow = r.pkt.(cell r i).Packet.flow in
      let c = tally_cell s flow in
      let n =
        if s.stamps.(c) = s.gen then s.counts.(c) + 1
        else begin
          s.stamps.(c) <- s.gen;
          s.flows.(c) <- flow;
          incr distinct;
          1
        end
      in
      s.counts.(c) <- n;
      if n > !best then begin
        best := n;
        ties := 1;
        fattest := flow
      end
      else if n = !best then incr ties
    done;
    let victim =
      if !ties = 1 then !fattest
      else tie_break s r ~best:!best ~distinct:!distinct
    in
    let k = ref (r.len - 1) in
    while r.pkt.(cell r !k).Packet.flow <> victim do
      decr k
    done;
    remove_at r !k
  end

let drop_from t cls =
  let victim =
    match cls with
    | Recovery ->
        (* Lowest priority, newest: the tail. *)
        pop_tail t.rings.(0)
    | New_flow | Over_penalized | Below_fair_share | Above_fair_share ->
        pop_fattest_flow t t.rings.(class_index cls)
  in
  if victim == Packet.dummy then None
  else begin
    t.bytes <- t.bytes - victim.size;
    t.packets <- t.packets - 1;
    Some victim
  end

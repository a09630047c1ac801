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

type t = {
  now : unit -> float;
  rings : ring array;  (* by [class_index]: 0 Recovery, 4 AboveFairShare *)
  bucket : bucket;
  mutable bytes : int;
  mutable packets : int;
  (* Per-flow packet counts of the ring a push-out scans; reset before
     each use (see [pop_fattest_flow]). *)
  counts : (int, int) Hashtbl.t;
}

let create ~config ~now =
  let rate =
    config.Taq_config.recovery_share *. config.Taq_config.capacity_bps /. 8.0
  in
  {
    now;
    rings =
      Array.init 5 (fun _ -> { prio = [||]; pkt = [||]; head = 0; len = 0 });
    bucket =
      {
        tokens = 0.0;
        tokens_at = now ();
        rate;
        (* A small burst allowance so single retransmissions are never
           blocked by quantization. *)
        burst = Float.max 3000.0 (rate *. 0.25);
      };
    bytes = 0;
    packets = 0;
    counts = Hashtbl.create 16;
  }

let refill_tokens t =
  let b = t.bucket and now = t.now () in
  let dt = now -. b.tokens_at in
  if dt > 0.0 then begin
    b.tokens <- Float.min b.burst (b.tokens +. (dt *. b.rate));
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

let grow r p =
  let n = Stdlib.max 16 (2 * Array.length r.pkt) in
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

(* Remove the newest packet of the flow holding the most packets in the
   ring. Spreading push-out victims across flows this way avoids
   wiping out a small flow's entire 1–2 packet burst in one buffer
   overflow — the correlated loss that turns a simple timeout into a
   repetitive one. Queues are buffer-bounded, so the scan is cheap.
   Among equally fat flows the first in [counts]' iteration order
   wins. [Hashtbl.reset] restores the initial bucket array, so that
   order is the one a fresh table would give, whatever earlier
   push-outs grew the table to. *)
let pop_fattest_flow t r =
  if r.len = 0 then Packet.dummy
  else begin
    let counts = t.counts in
    Hashtbl.reset counts;
    for i = 0 to r.len - 1 do
      let flow = r.pkt.(cell r i).Packet.flow in
      let c = try Hashtbl.find counts flow with Not_found -> 0 in
      Hashtbl.replace counts flow (c + 1)
    done;
    let victim_flow = ref (-1) and best = ref 0 in
    Hashtbl.iter
      (fun flow c ->
        if c > !best then begin
          best := c;
          victim_flow := flow
        end)
      counts;
    let k = ref (r.len - 1) in
    while r.pkt.(cell r !k).Packet.flow <> !victim_flow do
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

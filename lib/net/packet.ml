type kind = Syn | Syn_ack | Data | Ack | Fin

(* Fields are mutable so the per-network allocator can recycle records:
   everyone else treats packets as read-only values. *)
type t = {
  mutable uid : int;
  mutable flow : int;
  mutable pool : int;
  mutable kind : kind;
  mutable seq : int;
  mutable size : int;
  mutable retx : bool;
  mutable sacks : (int * int) list;
  mutable sent_at : float;
}

(* Packet uids only need to be unique within one simulated network
   (disciplines compare uids to tell an arriving packet from queued
   victims). Allocation therefore lives in a per-network allocator —
   there is deliberately no process-global counter, so independent
   simulations can run in parallel domains without sharing state.

   The allocator doubles as a free list: [release] parks a dead record,
   [make] revives it with a *fresh* uid. Uids are generation stamps —
   they are never reused, so a recycled record can never alias a
   still-queued victim in a discipline's uid comparison, and a released
   record is recognisable by its negative uid ([release] is idempotent
   on it). *)
type alloc = {
  mutable next_uid : int;
  mutable free : t array;
  mutable free_top : int;
}

let alloc () = { next_uid = 0; free = [||]; free_top = 0 }

let fresh_uid a =
  a.next_uid <- a.next_uid + 1;
  a.next_uid

let dead_uid = -1

let is_live p = p.uid >= 0

let free_count a = a.free_top

let release a p =
  if p.uid >= 0 then begin
    p.uid <- dead_uid;
    p.sacks <- [];
    (* keep no references alive through the pool *)
    let cap = Array.length a.free in
    if a.free_top = cap then begin
      let bigger = Array.make (Stdlib.max 16 (cap * 2)) p in
      Array.blit a.free 0 bigger 0 cap;
      a.free <- bigger
    end;
    a.free.(a.free_top) <- p;
    a.free_top <- a.free_top + 1
  end

(* All-required-label constructor: explicitly passing a value for an
   optional argument allocates a [Some] per call, so the per-packet hot
   paths (TCP data and ack emission) use this form. *)
let make_exact ~alloc ~flow ~pool ~kind ~seq ~size ~retx ~sacks ~sent_at =
  if alloc.free_top > 0 then begin
    let top = alloc.free_top - 1 in
    alloc.free_top <- top;
    let p = alloc.free.(top) in
    p.uid <- fresh_uid alloc;
    p.flow <- flow;
    p.pool <- pool;
    p.kind <- kind;
    p.seq <- seq;
    p.size <- size;
    p.retx <- retx;
    p.sacks <- sacks;
    p.sent_at <- sent_at;
    p
  end
  else
    { uid = fresh_uid alloc; flow; pool; kind; seq; size; retx; sacks; sent_at }

let make ~alloc ~flow ?(pool = -1) ~kind ~seq ~size ?(retx = false)
    ?(sacks = []) ~sent_at () =
  make_exact ~alloc ~flow ~pool ~kind ~seq ~size ~retx ~sacks ~sent_at

let kind_to_string = function
  | Syn -> "SYN"
  | Syn_ack -> "SYN-ACK"
  | Data -> "DATA"
  | Ack -> "ACK"
  | Fin -> "FIN"

let pp ppf p =
  Format.fprintf ppf "[%s flow=%d seq=%d size=%d%s]" (kind_to_string p.kind)
    p.flow p.seq p.size
    (if p.retx then " retx" else "")

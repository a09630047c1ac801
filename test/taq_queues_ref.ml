(* The TAQ class queues as they stood before the Recovery ring: the
   Recovery class is a sorted [(priority, packet)] list, copied on every
   insert and reversed twice on every push-out. Kept verbatim (bar this
   header and the [open]) as the reference the Recovery differential in
   test_taq drives in lockstep with [Taq_core.Taq_queues]. *)

open Taq_core

module Packet = Taq_net.Packet
module Deque = Taq_util.Deque

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

type t = {
  config : Taq_config.t;
  now : unit -> float;
  (* Recovery: kept sorted by priority descending; insertion keeps
     arrival order among equal priorities. Queue sizes are bounded by
     the buffer capacity, so linear insertion is fine. *)
  mutable recovery : (float * Packet.t) list;
  new_flow : Packet.t Deque.t;
  over_penalized : Packet.t Deque.t;
  below : Packet.t Deque.t;
  above : Packet.t Deque.t;
  mutable bytes : int;
  mutable packets : int;
  (* Token bucket bounding the recovery queue's link share. *)
  mutable tokens : float;  (* bytes *)
  mutable tokens_at : float;
  token_rate : float;  (* bytes per second *)
  token_burst : float;
  (* Per-flow packet counts of the deque a push-out scans; reset before
     each use (see [pop_fattest_flow]). *)
  counts : (int, int) Hashtbl.t;
}

let create ~config ~now =
  let token_rate =
    config.Taq_config.recovery_share *. config.Taq_config.capacity_bps /. 8.0
  in
  {
    config;
    now;
    recovery = [];
    new_flow = Deque.create ();
    over_penalized = Deque.create ();
    below = Deque.create ();
    above = Deque.create ();
    bytes = 0;
    packets = 0;
    tokens = 0.0;
    tokens_at = now ();
    token_rate;
    (* A small burst allowance so single retransmissions are never
       blocked by quantization. *)
    token_burst = Float.max 3000.0 (token_rate *. 0.25);
    counts = Hashtbl.create 16;
  }

let refill_tokens t =
  let now = t.now () in
  let dt = now -. t.tokens_at in
  if dt > 0.0 then begin
    t.tokens <- Float.min t.token_burst (t.tokens +. (dt *. t.token_rate));
    t.tokens_at <- now
  end

let account_add t (p : Packet.t) =
  t.bytes <- t.bytes + p.size;
  t.packets <- t.packets + 1

let account_remove t (p : Packet.t) =
  t.bytes <- t.bytes - p.size;
  t.packets <- t.packets - 1

let insert_recovery t prio p =
  let rec insert = function
    | [] -> [ (prio, p) ]
    | (q, _) :: _ as rest when prio > q -> (prio, p) :: rest
    | entry :: rest -> entry :: insert rest
  in
  t.recovery <- insert t.recovery

let enqueue t cls ?(priority = 0.0) p =
  account_add t p;
  match cls with
  | Recovery -> insert_recovery t priority p
  | New_flow -> Deque.push_back t.new_flow p
  | Over_penalized -> Deque.push_back t.over_penalized p
  | Below_fair_share -> Deque.push_back t.below p
  | Above_fair_share -> Deque.push_back t.above p

let all_classes =
  [ Recovery; New_flow; Over_penalized; Below_fair_share; Above_fair_share ]

let class_length t = function
  | Recovery -> List.length t.recovery
  | New_flow -> Deque.length t.new_flow
  | Over_penalized -> Deque.length t.over_penalized
  | Below_fair_share -> Deque.length t.below
  | Above_fair_share -> Deque.length t.above

let class_bytes t cls =
  match cls with
  | Recovery ->
      List.fold_left (fun acc (_, p) -> acc + p.Packet.size) 0 t.recovery
  | New_flow | Over_penalized | Below_fair_share | Above_fair_share ->
      let dq =
        match cls with
        | New_flow -> t.new_flow
        | Over_penalized -> t.over_penalized
        | Below_fair_share -> t.below
        | Above_fair_share -> t.above
        | Recovery -> assert false
      in
      let sum = ref 0 in
      Deque.iter (fun (p : Packet.t) -> sum := !sum + p.size) dq;
      !sum

let recovery_sorted t =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) -> a >= b && go rest
    | [ _ ] | [] -> true
  in
  go t.recovery

let total_packets t = t.packets

let total_bytes t = t.bytes

let pop_recovery t =
  match t.recovery with
  | [] -> None
  | (_, p) :: rest ->
      t.recovery <- rest;
      Some p

let longest_level2 t =
  let candidates =
    [
      (New_flow, Deque.length t.new_flow);
      (Over_penalized, Deque.length t.over_penalized);
      (Below_fair_share, Deque.length t.below);
    ]
  in
  let best =
    List.fold_left
      (fun acc (cls, len) ->
        match acc with
        | Some (_, best_len) when best_len >= len -> acc
        | _ when len > 0 -> Some (cls, len)
        | _ -> acc)
      None candidates
  in
  Option.map fst best

let deque_of t = function
  | New_flow -> t.new_flow
  | Over_penalized -> t.over_penalized
  | Below_fair_share -> t.below
  | Above_fair_share -> t.above
  | Recovery -> invalid_arg "Taq_queues.deque_of: recovery is not a deque"

let dequeue t =
  refill_tokens t;
  (* Level 1: recovery, when the token bucket allows. *)
  let from_recovery =
    match t.recovery with
    | (_, p) :: _ when t.tokens >= float_of_int p.Packet.size ->
        t.tokens <- t.tokens -. float_of_int p.Packet.size;
        pop_recovery t
    | _ :: _ | [] -> None
  in
  let result =
    match from_recovery with
    | Some _ as r -> r
    | None -> (
        (* Level 2: longest of the three equal-priority queues. *)
        match longest_level2 t with
        | Some cls -> Deque.pop_front (deque_of t cls)
        | None -> (
            (* Level 3. *)
            match Deque.pop_front t.above with
            | Some _ as r -> r
            | None ->
                (* Recovery holds the only packets but has no tokens:
                   stay work conserving rather than idle the link. *)
                pop_recovery t))
  in
  Option.iter (fun p -> account_remove t p) result;
  result

let select_victim t =
  if Deque.length t.above > 0 then Some Above_fair_share
  else
    match longest_level2 t with
    | Some cls -> Some cls
    | None -> if t.recovery <> [] then Some Recovery else None

(* Remove the newest packet of the flow holding the most packets in the
   deque. Spreading push-out victims across flows this way avoids
   wiping out a small flow's entire 1–2 packet burst in one buffer
   overflow — the correlated loss that turns a simple timeout into a
   repetitive one. Queues are buffer-bounded, so the scan is cheap.
   Among equally fat flows the first in [counts]' iteration order
   wins. [Hashtbl.reset] restores the initial bucket array, so that
   order is the one a fresh table would give, whatever earlier
   push-outs grew the table to. *)
let pop_fattest_flow t dq =
  if Deque.is_empty dq then None
  else begin
    let counts = t.counts in
    Hashtbl.reset counts;
    Deque.iter
      (fun (p : Packet.t) ->
        let c = try Hashtbl.find counts p.flow with Not_found -> 0 in
        Hashtbl.replace counts p.flow (c + 1))
      dq;
    let victim_flow = ref (-1) and best = ref 0 in
    Hashtbl.iter
      (fun flow c ->
        if c > !best then begin
          best := c;
          victim_flow := flow
        end)
      counts;
    let victim_flow = !victim_flow in
    Deque.remove_last (fun (p : Packet.t) -> p.flow = victim_flow) dq
  end

let drop_from t cls =
  let victim =
    match cls with
    | Recovery -> (
        (* Lowest priority = last element of the sorted list. *)
        match List.rev t.recovery with
        | [] -> None
        | (_, p) :: rest_rev ->
            t.recovery <- List.rev rest_rev;
            Some p)
    | New_flow | Over_penalized | Below_fair_share | Above_fair_share ->
        pop_fattest_flow t (deque_of t cls)
  in
  Option.iter (fun p -> account_remove t p) victim;
  victim

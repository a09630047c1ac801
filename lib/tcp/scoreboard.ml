(* A plain int min-heap with lazy deletion, holding candidate lost
   sequence numbers. Stale entries (segments no longer Lost) are
   filtered on pop, making [next_lost_seq] O(log n) amortized instead of a
   scan of the whole window — a go-back-N recovery of a large window
   would otherwise be quadratic. *)
module Lost_heap = struct
  type t = { mutable a : int array; mutable size : int }

  let create () = { a = Array.make 16 0; size = 0 }

  let push h x =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) 0 in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.a.(!i) <- x;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let parent = (!i - 1) / 2 in
      let tmp = h.a.(parent) in
      h.a.(parent) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := parent
    done

  (* -1 = empty: sequence numbers are non-negative. *)
  let peek h = if h.size = 0 then -1 else h.a.(0)

  let drop_top h =
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.a.(0) <- h.a.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.a.(l) < h.a.(!smallest) then smallest := l;
        if r < h.size && h.a.(r) < h.a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.a.(!i) in
          h.a.(!i) <- h.a.(!smallest);
          h.a.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end
end

(* The tracked segments always form the window [lo, hi) (cumulative
   acks forget a prefix, new transmissions extend the top), so state
   lives in ring-indexed flat arrays instead of a hashtable: a status
   code per segment plus its last transmission time in a float array.
   Steady-state transmit/ack/mark operations allocate nothing. *)
let absent = 0

let in_flight = 1

let in_flight_retx = 2 (* in flight, retransmitted at least once *)

let sacked_c = 3

let lost_c = 4

type t = {
  mutable st : int array;  (* status codes, indexed by [seq land mask] *)
  mutable sent_at : float array;  (* parallel: last transmission time *)
  mutable lo : int;  (* lowest tracked seq (= hi when empty) *)
  mutable hi : int;  (* 1 + highest tracked seq *)
  lost_candidates : Lost_heap.t;
  mutable pipe : int;
  mutable lost : int;
  mutable sacked : int;
}

let create () =
  {
    st = Array.make 64 absent;
    sent_at = Array.make 64 nan;
    lo = 0;
    hi = 0;
    lost_candidates = Lost_heap.create ();
    pipe = 0;
    lost = 0;
    sacked = 0;
  }

let idx t seq = seq land (Array.length t.st - 1)

let[@inline never] grow t needed =
  let cap = ref (Array.length t.st) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let st = Array.make !cap absent in
  let sent_at = Array.make !cap nan in
  let mask = !cap - 1 in
  for seq = t.lo to t.hi - 1 do
    st.(seq land mask) <- t.st.(idx t seq);
    sent_at.(seq land mask) <- t.sent_at.(idx t seq)
  done;
  t.st <- st;
  t.sent_at <- sent_at

(* Make [seq] addressable. Ring slots are zeroed when their occupant is
   forgotten and the window never exceeds capacity, so slots newly
   brought into [lo, hi) are already [absent]. *)
let ensure t seq =
  if t.lo = t.hi then begin
    t.lo <- seq;
    t.hi <- seq + 1
  end
  else if seq >= t.hi then begin
    if seq + 1 - t.lo > Array.length t.st then grow t (seq + 1 - t.lo);
    t.hi <- seq + 1
  end
  else if seq < t.lo then begin
    if t.hi - seq > Array.length t.st then grow t (t.hi - seq);
    t.lo <- seq
  end

let code t seq = if seq < t.lo || seq >= t.hi then absent else t.st.(idx t seq)

let on_transmit t ~seq ~at ~retx =
  ensure t seq;
  let i = idx t seq in
  let c =
    match t.st.(i) with
    | 1 | 2 ->
        (* spurious double transmit: pipe unchanged, history kept *)
        if retx || t.st.(i) = in_flight_retx then in_flight_retx else in_flight
    | 4 ->
        t.lost <- t.lost - 1;
        t.pipe <- t.pipe + 1;
        if retx then in_flight_retx else in_flight
    | 3 ->
        (* resending a sacked segment would be a sender bug *)
        assert false
    | _ ->
        t.pipe <- t.pipe + 1;
        if retx then in_flight_retx else in_flight
  in
  t.st.(i) <- c;
  t.sent_at.(i) <- at

let pipe t = t.pipe

let tracked t = t.pipe + t.lost + t.sacked

let forget t seq =
  if seq >= t.lo && seq < t.hi then begin
    let i = idx t seq in
    (match t.st.(i) with
    | 1 | 2 -> t.pipe <- t.pipe - 1
    | 4 -> t.lost <- t.lost - 1
    | 3 -> t.sacked <- t.sacked - 1
    | _ -> ());
    t.st.(i) <- absent;
    t.sent_at.(i) <- nan;
    (* advance the window past the forgotten prefix *)
    while t.lo < t.hi && t.st.(idx t t.lo) = absent do
      t.lo <- t.lo + 1
    done;
    if t.lo = t.hi then begin
      t.lo <- t.hi
    end
  end

let ack_range t ~from_ ~until =
  for seq = from_ to until - 1 do
    forget t seq
  done

let mark_sacked t seq =
  match code t seq with
  | 1 | 2 ->
      t.pipe <- t.pipe - 1;
      t.sacked <- t.sacked + 1;
      t.st.(idx t seq) <- sacked_c
  | 4 ->
      t.lost <- t.lost - 1;
      t.sacked <- t.sacked + 1;
      t.st.(idx t seq) <- sacked_c
  | _ -> ()

let mark_lost t seq =
  match code t seq with
  | 1 | 2 ->
      t.pipe <- t.pipe - 1;
      t.lost <- t.lost + 1;
      t.st.(idx t seq) <- lost_c;
      Lost_heap.push t.lost_candidates seq
  | _ -> ()

let mark_all_lost t =
  for seq = t.lo to t.hi - 1 do
    mark_lost t seq
  done

let rec next_lost_seq t =
  if t.lost = 0 then -1
  else begin
    let seq = Lost_heap.peek t.lost_candidates in
    if seq < 0 then -1
    else if code t seq = lost_c then seq
    else begin
      (* Stale candidate (retransmitted, sacked or acked since):
         discard and keep looking. *)
      Lost_heap.drop_top t.lost_candidates;
      next_lost_seq t
    end
  end

let lost_count t = t.lost

let sacked_count t = t.sacked

let sacked_above t seq0 =
  let n = ref 0 in
  for seq = Int.max t.lo (seq0 + 1) to t.hi - 1 do
    if t.st.(idx t seq) = sacked_c then incr n
  done;
  !n

let sent_time t seq =
  match code t seq with 1 | 2 -> t.sent_at.(idx t seq) | _ -> nan

let sent_ever_retx t seq = code t seq = in_flight_retx

let iter_in_flight t f =
  for seq = t.lo to t.hi - 1 do
    match t.st.(idx t seq) with 1 | 2 -> f seq | _ -> ()
  done

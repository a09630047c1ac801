(* Flat struct-of-arrays binary min-heap.

   The heap used to store boxed [{ time; seq; payload }] records; at
   millions of events per run the entry boxes dominated minor-heap
   traffic. The flat layout keeps three parallel arrays — an unboxed
   [float array] of times, an [int array] of insertion sequence numbers
   (the FIFO tie-break) and an [int array] of payloads — and sift-up /
   sift-down move all three in lockstep, so steady-state push/pop
   allocates nothing. Payloads are ints because the simulator stores
   slot/generation event handles; test/event_heap_ref.ml keeps the
   boxed reference implementation the differential tests run against.
   (A 4-ary variant was measured and lost to the binary sift on the
   fig3 workload, so the arity stays 2.) *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable max_size : int;
      (* high-water mark since creation (or the last [clear]); two int
         ops per push, so it is maintained unconditionally and the
         observability layer reads it for free *)
}

(* Slots at indices >= size are garbage and never read. We grow by
   doubling and never shrink (heaps in a simulation stay warm) —
   [clear] therefore keeps the arrays and only resets the counters. *)

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    max_size = 0;
  }

let[@inline] is_empty t = t.size = 0

let[@inline] size t = t.size

let[@inline] max_size t = t.max_size

let capacity t = Array.length t.times

let clear t =
  t.size <- 0;
  t.max_size <- 0

let grow t =
  let cap = Array.length t.times in
  let ncap = Stdlib.max 16 (cap * 2) in
  let times = Array.make ncap 0.0 in
  Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let payloads = Array.make ncap 0 in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up with a hole: parents later than the new entry slide down,
     then the entry lands once — each step moves all three arrays. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      payloads.(!i) <- payloads.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

(* Move the last entry to the root and sift it down (hole-style, like
   [push]). Callers have already consumed the root. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and payloads = t.payloads in
    let time = times.(n) and seq = seqs.(n) and payload = payloads.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = times.(l) and rt = times.(r) in
            if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
          end
          else l
        in
        let ct = times.(c) in
        if ct < time || (ct = time && seqs.(c) < seq) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          payloads.(!i) <- payloads.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    payloads.(!i) <- payload
  end

let[@inline] top_time t =
  if t.size = 0 then invalid_arg "Event_heap.top_time: empty";
  t.times.(0)

let pop_payload t =
  if t.size = 0 then invalid_arg "Event_heap.pop_payload: empty";
  let payload = t.payloads.(0) in
  remove_top t;
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and payload = t.payloads.(0) in
    remove_top t;
    Some (time, payload)
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)

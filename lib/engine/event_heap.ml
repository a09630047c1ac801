(* Flat struct-of-arrays binary min-heap.

   The heap used to store boxed [{ time; seq; payload }] records; at
   millions of events per run the entry boxes dominated minor-heap
   traffic. The flat layout keeps three parallel arrays — an unboxed
   [float array] of times, an [int array] of insertion sequence numbers
   (the FIFO tie-break) and an [int array] of payloads — and sift-up /
   sift-down move all three in lockstep, so steady-state push/pop
   allocates nothing. Payloads are ints because the simulator stores
   event-slot indices; test/event_heap_ref.ml keeps the boxed reference
   implementation the differential tests run against. (A 4-ary variant
   was measured and lost to the binary sift on the fig3 workload, so
   the arity stays 2; so did a bottom-up [remove_top] that walks the
   hole to a leaf and sifts the last entry up: slower on bench/perf's
   dt-long in every pair measured.)

   [remove_top] chooses the earlier of two children without a jump.
   Which child is earlier is close to a coin toss, so a branch there
   was mispredicted on about every other level: that, not memory
   traffic or the heap's shape, made the sift the largest function in
   every bench/perf workload. [l + Bool.to_int (rt < lt)] compiles to a
   compare-and-mask ([cmpltsd] on amd64) and arithmetic. An exact tie
   of the two times is rare, so its branch to the seq comparison is
   well predicted, and the (time, seq) order stays exact. With the
   choice branch-free, a 4-ary pop, a bottom-up pop and a branch-free
   [earliest] over an array of the heaps were still no faster, and the
   same choice in [Flow_tracker]'s deadline heap gained nothing.
   DESIGN.md ("Event calendar") has the measurements.

   Times cross the hot operations in float-array cells rather than as
   float arguments or results: a float passed to or returned from a
   call the compiler does not inline is boxed, and [Sim] would
   allocate on every event. The release profile inlines across
   modules, but not every call, and not at all under
   [--profile dev]'s [-opaque]. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
}

(* Slots at indices >= size are garbage and never read. We grow by
   doubling and never shrink (heaps in a simulation stay warm). *)

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0 }

let[@inline] is_empty t = t.size = 0

let[@inline] size t = t.size

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

let push t ~seq cell payload =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let time = cell.(0) in
  (* Sift up with a hole: parents later than the new entry slide down,
     then the entry lands once — each step moves all three arrays. *)
  let i = ref t.size in
  t.size <- t.size + 1;
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
            (* No jump but on a tie (see the header). *)
            if rt = lt then if seqs.(r) < seqs.(l) then r else l
            else l + Bool.to_int (rt < lt)
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

(* Whether [a]'s top comes before [b]'s. Seqs are unique across the
   heaps compared, so two tops never tie. *)
let[@inline] precedes a b =
  a.size > 0
  && (b.size = 0
     ||
     let ta = a.times.(0) and tb = b.times.(0) in
     ta < tb || (ta = tb && a.seqs.(0) < b.seqs.(0)))

let earliest a b c =
  let ab = if precedes a b then a else b in
  if precedes c ab then c else ab

let pop_due t clock =
  if t.size > 0 && t.times.(0) <= clock.(1) then begin
    clock.(0) <- t.times.(0);
    let payload = t.payloads.(0) in
    remove_top t;
    payload
  end
  else -1

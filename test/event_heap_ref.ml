(* The original boxed-entry event heap, retained as the
   reference implementation for the differential test battery: the
   flat struct-of-arrays [Event_heap] must reproduce this heap's pop
   order (including the FIFO tie-break on equal times) and its [size]
   trajectory under arbitrary interleavings of pushes, pops, reserved
   sequence numbers filed late, and due-bounded pops. Not used on any
   production path. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { entries = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let size t = t.size

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.entries in
  if t.size = cap then begin
    let ncap = Stdlib.max 16 (cap * 2) in
    let bigger = Array.make ncap entry in
    Array.blit t.entries 0 bigger 0 t.size;
    t.entries <- bigger
  end

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_seq t ~seq cell payload =
  let entry = { time = cell.(0); seq; payload } in
  grow t entry;
  (* Sift up. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.entries.(!i) <- entry;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier entry t.entries.(parent) then begin
      t.entries.(!i) <- t.entries.(parent);
      t.entries.(parent) <- entry;
      i := parent
    end
    else continue := false
  done

let push t ~time payload = push_seq t ~seq:(reserve_seq t) [| time |] payload

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.entries.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.entries.(t.size) in
      t.entries.(0) <- last;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && earlier t.entries.(l) t.entries.(!smallest) then
          smallest := l;
        if r < t.size && earlier t.entries.(r) t.entries.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = t.entries.(!i) in
          t.entries.(!i) <- t.entries.(!smallest);
          t.entries.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some t.entries.(0).time

let pop_due t clock =
  match peek_time t with
  | Some time when time <= clock.(1) ->
      clock.(0) <- time;
      Option.map snd (pop t)
  | Some _ | None -> None

(* Open addressing with linear probing over two parallel arrays.

   Layout. Slot [i] of [keys] holds a key and slot [i] of [vals] its
   value. The capacity is a power of two and [mask] is the capacity
   minus one. A key's home slot is [key land mask], the identity hash
   cut to the low bits; a probe starts there and steps to the next slot
   until it finds the key or a vacant slot. An insert that would make
   the table more than half full first doubles it, so probe runs stay
   short and a vacant slot always exists.

   Vacant slots. Slot [i] of [keys], vacant, holds [i + 1], an int
   whose home is the next slot. No key ever sits in the slot just
   before its home: its probe would have crossed every other slot, and
   one of them is vacant. So "the home of [keys.(i)] is slot [i + 1]"
   marks slot [i] vacant, with no sentinel key and no occupancy array,
   and any int is a key. Nor does a probe mistake the mark for the key
   it seeks: a probe for [i + 1] starts at slot [i + 1] and would reach
   slot [i] only after crossing every other slot.

   Deletion shifts back, with no tombstones: each later key of the run
   whose home does not lie between the hole and itself moves into the
   hole, and its slot becomes the hole, until a vacant slot ends the
   run. Every run is then exactly as an insert of the remaining keys
   would have built it.

   The filler rule. A vacant value cell holds the filler: the first
   value stored since the table was created or reset. A removed value
   is overwritten by the filler, taken from the vacant slot that ended
   the shift, so a removed value never stays reachable through the
   table, except the filler itself, one value per table. ([Obj] could
   clear the cell instead; nothing in lib/ uses it.)

   Allocation. A new table shares [unallocated] (two vacant slots, no
   values), so [create] allocates only the record, and the arrays come
   with the first insert, at the initial capacity of at most 256.
   In OCaml 5.1, [Array.make] of more than 256 words ([Max_young_wosize])
   with a value in the minor heap forces a minor collection first
   ([caml_make_vect]), and the value being inserted usually is young.
   So only that first, small array is made from a value; growth doubles
   the values with [Array.append vals vals], one allocation that
   copies rather than initialises, then fills it with the filler and
   places the keys again. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable mask : int;
  mutable size : int;
  initial : int;  (* capacity of the first arrays *)
}

(* Shared by every table without arrays, in every domain. It is never
   written: an insert into a table that holds it grows first. *)
let unallocated = [| 1; 2 |]

let max_initial = 256

let create n =
  let rec capacity c =
    if c >= n || c >= max_initial then c else capacity (2 * c)
  in
  { keys = unallocated; vals = [||]; mask = 1; size = 0; initial = capacity 8 }

let[@inline] vacant keys mask i =
  (Array.unsafe_get keys i - i - 1) land mask = 0

(* The slot holding [key], or [lnot] the vacant slot where its probe
   stops. *)
let[@inline] index t key =
  let keys = t.keys and mask = t.mask in
  let i = ref (key land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && (!k - !i - 1) land mask <> 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = key then !i else lnot !i

(* [index]'s probe, leaving the loop on a hit straight for the value:
   [find] runs for almost every packet. *)
let find t key =
  let keys = t.keys and mask = t.mask in
  let i = ref (key land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key do
    if (!k - !i - 1) land mask = 0 then raise Not_found;
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  Array.unsafe_get t.vals !i

let find_opt t key =
  let i = index t key in
  if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let mem t key = index t key >= 0

let length t = t.size

(* Double the capacity, or make the first arrays from [v], then bind
   [key], which is absent, to [v]. *)
let[@inline never] grow_and_add t key v =
  let old_keys = t.keys and old_vals = t.vals and old_mask = t.mask in
  let n = Array.length old_vals in
  let cap = if n = 0 then t.initial else 2 * n in
  let mask = cap - 1 in
  let keys = Array.make cap 0 in
  for i = 0 to mask do
    keys.(i) <- i + 1
  done;
  let vals =
    if n = 0 then Array.make cap v
    else begin
      let e = ref 0 in
      while not (vacant old_keys old_mask !e) do
        incr e
      done;
      let vals = Array.append old_vals old_vals in
      Array.fill vals 0 cap old_vals.(!e);
      vals
    end
  in
  let place k x =
    let j = ref (k land mask) in
    while not (vacant keys mask !j) do
      j := (!j + 1) land mask
    done;
    keys.(!j) <- k;
    vals.(!j) <- x
  in
  for i = 0 to n - 1 do
    if not (vacant old_keys old_mask i) then place old_keys.(i) old_vals.(i)
  done;
  place key v;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.size <- t.size + 1

let replace t key v =
  let i = index t key in
  if i >= 0 then Array.unsafe_set t.vals i v
  else if 2 * (t.size + 1) <= Array.length t.vals then begin
    let i = lnot i in
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1
  end
  else grow_and_add t key v

(* Empty occupied slot [i] by shifting the rest of its run back. *)
let delete t i =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let hole = ref i and j = ref ((i + 1) land mask) in
  let k = ref (Array.unsafe_get keys !j) in
  while (!k - !j - 1) land mask <> 0 do
    (* The key at [j] fills the hole unless its home lies after the
       hole and at or before [j]. *)
    if (!j - !k) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set keys !hole !k;
      Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
      hole := !j
    end;
    j := (!j + 1) land mask;
    k := Array.unsafe_get keys !j
  done;
  Array.unsafe_set keys !hole (!hole + 1);
  Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
  t.size <- t.size - 1

let remove t key =
  let i = index t key in
  if i >= 0 then delete t i

let iter f t =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  if t.size > 0 then
    for i = 0 to mask do
      if not (vacant keys mask i) then f keys.(i) vals.(i)
    done

let fold f t init =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let acc = ref init in
  if t.size > 0 then
    for i = 0 to mask do
      if not (vacant keys mask i) then acc := f keys.(i) vals.(i) !acc
    done;
  !acc

let reset t =
  t.keys <- unallocated;
  t.vals <- [||];
  t.mask <- 1;
  t.size <- 0

(* A deletion moves keys back towards the slot it empties, within their
   run. Starting just after a vacant slot [e] and going round to it, no
   run wraps past the start, so a shifted key lands in a slot not yet
   visited, at or after [i]: after a removal, [i] is visited again. *)
let filter_map_inplace f t =
  if t.size > 0 then begin
    let keys = t.keys and vals = t.vals and mask = t.mask in
    let e = ref 0 in
    while not (vacant keys mask !e) do
      incr e
    done;
    let i = ref ((!e + 1) land mask) in
    while !i <> !e do
      if vacant keys mask !i then i := (!i + 1) land mask
      else
        match f keys.(!i) vals.(!i) with
        | Some v ->
            vals.(!i) <- v;
            i := (!i + 1) land mask
        | None -> delete t !i
    done
  end

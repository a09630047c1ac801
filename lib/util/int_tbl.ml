(* Hashtbl specialised to int keys with an identity hash. The generic
   [Hashtbl] funnels every operation through the polymorphic
   [caml_hash] C primitive; for the int-keyed tables that sit on
   per-packet paths (flow maps, metrics cells, out-of-order sets) the
   key already is a well-distributed machine word, so hashing it again
   only costs. [land max_int] clamps negative keys to a non-negative
   hash, as [Hashtbl.Make] requires.

   The bucket is [key land (buckets - 1)], so keys must differ in their
   low bits. Never pack a secondary index above a primary key, as in
   [(slice lsl 22) lor flow]: the table never grows to 2^22 buckets, so
   every slice of a flow shares the flow's bucket and that chain grows
   with the secondary index. Key by the primary id and keep the
   secondary index in the value. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b

  let hash x = x land max_int
end)

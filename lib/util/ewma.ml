(* All-float record, stored flat: [update] writes in place without
   boxing. "No sample yet" is [value = nan] rather than a boolean flag,
   which would force every float store in the record to box. *)
type t = { alpha : float; mutable value : float }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
  { alpha; value = nan }

let is_initialized t = not (Float.is_nan t.value)

let update t x =
  if is_initialized t then
    t.value <- ((1.0 -. t.alpha) *. t.value) +. (t.alpha *. x)
  else t.value <- x

let value t = t.value

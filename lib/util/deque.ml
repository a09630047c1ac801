type 'a t = {
  mutable buf : 'a option array;
  mutable head : int;  (* index of front element *)
  mutable len : int;
}

let create () = { buf = Array.make 16 None; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let cap t = Array.length t.buf

let grow t =
  let ncap = cap t * 2 in
  let nbuf = Array.make ncap None in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.head + i) mod cap t)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push_back t x =
  if t.len = cap t then grow t;
  t.buf.((t.head + t.len) mod cap t) <- Some x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod cap t;
    t.len <- t.len - 1;
    x
  end

let pop_back t =
  if t.len = 0 then None
  else begin
    let i = (t.head + t.len - 1) mod cap t in
    let x = t.buf.(i) in
    t.buf.(i) <- None;
    t.len <- t.len - 1;
    x
  end

let peek_front t = if t.len = 0 then None else t.buf.(t.head)

let remove_last pred t =
  let c = cap t in
  let rec find k =
    (* [k] counts from the front; scan backwards from the newest. *)
    if k < 0 then None
    else
      match t.buf.((t.head + k) mod c) with
      | Some x as found when pred x ->
          for j = k to t.len - 2 do
            t.buf.((t.head + j) mod c) <- t.buf.((t.head + j + 1) mod c)
          done;
          t.buf.((t.head + t.len - 1) mod c) <- None;
          t.len <- t.len - 1;
          found
      | Some _ -> find (k - 1)
      | None -> assert false
  in
  find (t.len - 1)

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod cap t) with
    | Some x -> f x
    | None -> assert false
  done

type t = {
  name : string;
  enqueue : Packet.t -> Packet.t list;
  dequeue : unit -> Packet.t option;
  dequeue_drops : unit -> Packet.t list;
  length : unit -> int;
  bytes : unit -> int;
}

(* One shared closure for every discipline that never drops at
   dequeue: the field read costs nothing and allocates nothing. *)
let no_dequeue_drops () = []

(* Backed by a ring buffer rather than [Stdlib.Queue]: Queue allocates
   a 3-word cell per push and this FIFO sits on the per-packet hot
   path. The ring starts small and doubles up to [capacity_pkts]. *)
let fifo_of_queue ~name ~capacity_pkts () =
  let buf = ref (Array.make 16 None) in
  let head = ref 0 in
  let len = ref 0 in
  let bytes = ref 0 in
  let[@inline never] grow () =
    let n = Array.length !buf in
    let b = Array.make (2 * n) None in
    for i = 0 to !len - 1 do
      b.(i) <- !buf.((!head + i) land (n - 1))
    done;
    buf := b;
    head := 0
  in
  let enqueue (p : Packet.t) =
    if !len >= capacity_pkts then [ p ]
    else begin
      if !len = Array.length !buf then grow ();
      !buf.((!head + !len) land (Array.length !buf - 1)) <- Some p;
      incr len;
      bytes := !bytes + p.Packet.size;
      []
    end
  in
  let dequeue () =
    if !len = 0 then None
    else begin
      let i = !head in
      let r = !buf.(i) in
      !buf.(i) <- None;
      head := (i + 1) land (Array.length !buf - 1);
      decr len;
      (match r with
      | Some p -> bytes := !bytes - p.Packet.size
      | None -> ());
      r
    end
  in
  {
    name;
    enqueue;
    dequeue;
    dequeue_drops = no_dequeue_drops;
    length = (fun () -> !len);
    bytes = (fun () -> !bytes);
  }

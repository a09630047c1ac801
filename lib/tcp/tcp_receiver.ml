module Packet = Taq_net.Packet
module Itbl = Taq_util.Int_tbl

type t = {
  alloc : Packet.alloc;
  flow : int;
  pool : int;
  config : Tcp_config.t;
  now : unit -> float;
  send : Packet.t -> unit;
  schedule : (delay:float -> (unit -> unit) -> unit) option;
  ooo : unit Itbl.t;  (* received above cum (out of order) *)
  mutable cum : int;
  mutable unique : int;
  mutable dups : int;
  mutable recent : int list;  (* most-recently received, for SACK blocks *)
  mutable listeners : (int -> unit) list;
  mutable ack_pending : bool;  (* delayed-ack state *)
}

let create ?alloc ~flow ?(pool = -1) ~config ~now ~send ?schedule () =
  {
    alloc = (match alloc with Some a -> a | None -> Packet.alloc ());
    flow;
    pool;
    config;
    now;
    send;
    schedule;
    ooo = Itbl.create 16;
    cum = 0;
    unique = 0;
    dups = 0;
    recent = [];
    listeners = [];
    ack_pending = false;
  }

(* Top-level listener iteration: a [List.iter] closure would allocate
   on every delivered segment. *)
let rec notify_all fs (seq : int) =
  match fs with
  | [] -> ()
  | f :: rest ->
      f seq;
      notify_all rest seq

let on_segment t f = t.listeners <- f :: t.listeners

let cum_ack t = t.cum

let unique_segments t = t.unique

let duplicate_segments t = t.dups

(* SACK blocks: contiguous runs over the out-of-order set, reported
   most-recent-first, at most 3 blocks (as a real header would carry).
   Only computed when the connection speaks SACK, and run expansion is
   bounded so per-ack work stays O(1) even when a bulk transfer has
   thousands of contiguous out-of-order segments buffered. *)
let max_run_walk = 256

let sack_blocks t =
  if Itbl.length t.ooo = 0 then []
  else begin
    let run_of seq =
      let lo = ref seq and hi = ref seq in
      let steps = ref 0 in
      while Itbl.mem t.ooo (!lo - 1) && !steps < max_run_walk do
        decr lo;
        incr steps
      done;
      steps := 0;
      while Itbl.mem t.ooo (!hi + 1) && !steps < max_run_walk do
        incr hi;
        incr steps
      done;
      (!lo, !hi + 1)
    in
    let blocks = ref [] in
    let covered (lo, hi) seq = seq >= lo && seq < hi in
    List.iter
      (fun seq ->
        if
          Itbl.mem t.ooo seq
          && (not (List.exists (fun b -> covered b seq) !blocks))
          && List.length !blocks < 3
        then blocks := run_of seq :: !blocks)
      t.recent;
    List.rev !blocks
  end

let send_ack_now t =
  let sacks =
    match t.config.Tcp_config.variant with
    | Tcp_config.Sack -> sack_blocks t
    | Tcp_config.Reno | Tcp_config.Newreno -> []
  in
  let pkt =
    Packet.make_exact ~alloc:t.alloc ~flow:t.flow ~pool:t.pool
      ~kind:Packet.Ack ~seq:t.cum ~size:t.config.Tcp_config.ack_bytes
      ~retx:false ~sacks ~sent_at:(t.now ())
  in
  t.ack_pending <- false;
  t.send pkt

(* RFC 1122 delayed acks: acknowledge every second in-order segment, or
   after the delay expires. Duplicates and out-of-order arrivals are
   acked immediately (dupacks drive fast retransmit and must not be
   delayed). *)
let send_ack ?(in_order = false) t =
  match (t.config.Tcp_config.delayed_ack, t.schedule) with
  | Some delay, Some schedule when in_order ->
      if t.ack_pending then send_ack_now t
      else begin
        t.ack_pending <- true;
        schedule ~delay (fun () -> if t.ack_pending then send_ack_now t)
      end
  | (None | Some _), _ -> send_ack_now t

let send_syn_ack t =
  let pkt =
    Packet.make ~alloc:t.alloc ~flow:t.flow ~pool:t.pool ~kind:Packet.Syn_ack
      ~seq:0 ~size:t.config.Tcp_config.ack_bytes ~sent_at:(t.now ()) ()
  in
  t.send pkt

(* [recent] feeds only {!sack_blocks}; Reno/NewReno receivers never
   read it, so skip the per-segment list rebuild for them (it is the
   one list allocation on the in-order data path). *)
let note_recent t seq =
  match t.config.Tcp_config.variant with
  | Tcp_config.Reno | Tcp_config.Newreno -> ()
  | Tcp_config.Sack ->
      let keep = 8 in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      t.recent <- take keep (seq :: List.filter (fun s -> s <> seq) t.recent)

let on_packet t (p : Packet.t) =
  match p.kind with
  | Packet.Syn -> send_syn_ack t
  | Packet.Data ->
      let seq = p.seq in
      if seq < t.cum || Itbl.mem t.ooo seq then begin
        t.dups <- t.dups + 1;
        note_recent t seq;
        send_ack t
      end
      else begin
        t.unique <- t.unique + 1;
        notify_all t.listeners seq;
        note_recent t seq;
        if seq = t.cum then begin
          t.cum <- t.cum + 1;
          while Itbl.mem t.ooo t.cum do
            Itbl.remove t.ooo t.cum;
            t.cum <- t.cum + 1
          done;
          send_ack ~in_order:true t
        end
        else begin
          Itbl.replace t.ooo seq ();
          send_ack t
        end
      end
  | Packet.Fin -> send_ack t
  | Packet.Ack | Packet.Syn_ack -> ()

module Int_tbl = Taq_util.Int_tbl

type decision = Admitted | Rejected

(* Admit below [pthresh - hysteresis] ("slightly smaller ... as a
   congestion avoidance strategy"). *)
let hysteresis = 0.02

let t_wait = 2.5

let pool_expiry = 60.0

let loss_alpha = 0.005

(* An admitted pool's last activity, in a flat float cell: [touch]
   stores into it without boxing. *)
type pool = { mutable last : float }

(* A waiting pool and when it was first rejected. A waiter is live while
   [waiting] maps its key to this very record: admitting or expiring it
   leaves a dead entry in the FIFO, dropped when it reaches the front. *)
type waiter = { key : int; first : float }

type t = {
  config : Taq_config.admission;
  now : unit -> float;
  loss : Taq_util.Ewma.t;
  (* Pools idle past [pool_expiry] at the last [expire] are gone, and
     read as absent, until a sweep frees them. *)
  admitted : pool Int_tbl.t;
  waiting : waiter Int_tbl.t;
  wait_order : waiter Queue.t;  (* FIFO of waiters, oldest first *)
  mutable last_forced : float;  (* last Twait-guaranteed admission *)
  mutable last_expire : float;
  mutable last_sweep : float;  (* of [admitted] *)
}

let create ~config ~now =
  {
    config;
    now;
    loss = Taq_util.Ewma.create ~alpha:loss_alpha;
    admitted = Int_tbl.create 64;
    waiting = Int_tbl.create 64;
    wait_order = Queue.create ();
    last_forced = neg_infinity;
    last_expire = neg_infinity;
    last_sweep = neg_infinity;
  }

let note_arrival t = Taq_util.Ewma.update t.loss 0.0

let note_drop t = Taq_util.Ewma.update t.loss 1.0

let loss_rate t =
  if Taq_util.Ewma.is_initialized t.loss then Taq_util.Ewma.value t.loss
  else 0.0

(* The pool is still admitted: the last [expire], the latest and so the
   strictest, did not find it idle past [pool_expiry]. *)
let[@inline] live t p = not (t.last_expire -. p.last > pool_expiry)

let[@inline] waits t w =
  match Int_tbl.find t.waiting w.key with
  | v -> v == w
  | exception Not_found -> false

(* Drop the dead entries at the front of the FIFO. *)
let rec drop_dead t =
  if
    (not (Queue.is_empty t.wait_order))
    && not (waits t (Queue.peek t.wait_order))
  then begin
    ignore (Queue.take t.wait_order);
    drop_dead t
  end

let admit t ~key ~now =
  Int_tbl.remove t.waiting key;
  match Int_tbl.find t.admitted key with
  | p -> p.last <- now
  | exception Not_found -> Int_tbl.replace t.admitted key { last = now }

let on_syn t ~key =
  let now = t.now () in
  match Int_tbl.find t.admitted key with
  | p when live t p ->
      p.last <- now;
      Admitted
  | _ | (exception Not_found) ->
      let threshold = t.config.Taq_config.pthresh -. hysteresis in
      if loss_rate t < threshold then begin
        admit t ~key ~now;
        Admitted
      end
      else begin
        let w =
          match Int_tbl.find t.waiting key with
          | w -> w
          | exception Not_found ->
              let w = { key; first = now } in
              Int_tbl.replace t.waiting key w;
              Queue.push w t.wait_order;
              w
        in
        (* The Twait guarantee admits pools one at a time, oldest first:
           blanket admission after Twait would restore the very
           contention the controller exists to limit. *)
        drop_dead t;
        if
          Queue.peek t.wait_order == w
          && now -. w.first >= t_wait
          && now -. t.last_forced >= t_wait
        then begin
          t.last_forced <- now;
          admit t ~key ~now;
          Admitted
        end
        else Rejected
      end

let touch t ~key =
  match Int_tbl.find t.admitted key with
  | p -> if live t p then p.last <- t.now ()
  | exception Not_found -> ()

let admitted_count t =
  Int_tbl.fold (fun _ p n -> if live t p then n + 1 else n) t.admitted 0

let waiting_count t = Int_tbl.length t.waiting

let shed_waiting t =
  Int_tbl.reset t.waiting;
  Queue.clear t.wait_order

let expire t =
  let now = t.now () in
  t.last_expire <- now;
  (* Waiting pools whose client never retries its SYN would otherwise
     sit in [waiting]/[wait_order] forever — unbounded state, and an
     eternal head-of-line blocker for the Twait guarantee (which only
     force-admits the oldest waiter). First-rejection order is FIFO
     order, so the stale waiters are at the front. *)
  drop_dead t;
  while
    (not (Queue.is_empty t.wait_order))
    && now -. (Queue.peek t.wait_order).first > pool_expiry
  do
    Int_tbl.remove t.waiting (Queue.take t.wait_order).key;
    drop_dead t
  done;
  if now -. t.last_sweep >= pool_expiry then begin
    t.last_sweep <- now;
    Int_tbl.filter_map_inplace
      (fun _ p -> if live t p then Some p else None)
      t.admitted
  end

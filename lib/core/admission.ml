type decision = Admitted | Rejected

(* Admit below [pthresh - hysteresis] ("slightly smaller ... as a
   congestion avoidance strategy"). *)
let hysteresis = 0.02

let t_wait = 2.5

let pool_expiry = 60.0

let loss_alpha = 0.005

type t = {
  config : Taq_config.admission;
  now : unit -> float;
  loss : Taq_util.Ewma.t;
  admitted : (int, float) Hashtbl.t;  (* pool -> last active *)
  waiting : (int, float) Hashtbl.t;  (* pool -> first rejected *)
  mutable wait_order : int list;  (* FIFO of waiting pools (oldest first) *)
  mutable last_forced : float;  (* last Twait-guaranteed admission *)
}

let create ~config ~now =
  {
    config;
    now;
    loss = Taq_util.Ewma.create ~alpha:loss_alpha;
    admitted = Hashtbl.create 64;
    waiting = Hashtbl.create 64;
    wait_order = [];
    last_forced = neg_infinity;
  }

let note_arrival t = Taq_util.Ewma.update t.loss 0.0

let note_drop t = Taq_util.Ewma.update t.loss 1.0

let loss_rate t =
  if Taq_util.Ewma.is_initialized t.loss then Taq_util.Ewma.value t.loss
  else 0.0

let admit t ~key =
  Hashtbl.remove t.waiting key;
  t.wait_order <- List.filter (fun k -> k <> key) t.wait_order;
  Hashtbl.replace t.admitted key (t.now ())

let on_syn t ~key =
  let now = t.now () in
  if Hashtbl.mem t.admitted key then begin
    Hashtbl.replace t.admitted key now;
    Admitted
  end
  else begin
    let threshold = t.config.Taq_config.pthresh -. hysteresis in
    if loss_rate t < threshold then begin
      admit t ~key;
      Admitted
    end
    else begin
      (match Hashtbl.find_opt t.waiting key with
      | Some _ -> ()
      | None ->
          Hashtbl.replace t.waiting key now;
          t.wait_order <- t.wait_order @ [ key ]);
      (* The Twait guarantee admits pools one at a time, oldest first:
         blanket admission after Twait would restore the very
         contention the controller exists to limit. *)
      let head_is_us = match t.wait_order with k :: _ -> k = key | [] -> false in
      let waited = now -. Hashtbl.find t.waiting key in
      if
        head_is_us
        && waited >= t_wait
        && now -. t.last_forced >= t_wait
      then begin
        t.last_forced <- now;
        admit t ~key;
        Admitted
      end
      else Rejected
    end
  end

let touch t ~key =
  if Hashtbl.mem t.admitted key then Hashtbl.replace t.admitted key (t.now ())

let admitted_count t = Hashtbl.length t.admitted

let waiting_count t = Hashtbl.length t.waiting

let shed_waiting t =
  Hashtbl.reset t.waiting;
  t.wait_order <- []

let expire t =
  let now = t.now () in
  let stale = ref [] in
  Hashtbl.iter
    (fun key last -> if now -. last > pool_expiry then stale := key :: !stale)
    t.admitted;
  List.iter (Hashtbl.remove t.admitted) !stale;
  (* Waiting pools whose client never retries its SYN would otherwise
     sit in [waiting]/[wait_order] forever — unbounded state, and an
     eternal head-of-line blocker for the Twait guarantee (which only
     force-admits the oldest waiter). Prune by first-rejection time. *)
  let stale_waiting = ref [] in
  Hashtbl.iter
    (fun key first ->
      if now -. first > pool_expiry then stale_waiting := key :: !stale_waiting)
    t.waiting;
  if !stale_waiting <> [] then begin
    List.iter (Hashtbl.remove t.waiting) !stale_waiting;
    t.wait_order <- List.filter (Hashtbl.mem t.waiting) t.wait_order
  end

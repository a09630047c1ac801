module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_receiver = Taq_tcp.Tcp_receiver

type fetch = {
  size : int;
  requested_at : float;
  started_at : float;
  finished_at : float;
}

type pending_fetch = {
  p_size : int;
  p_requested_at : float;
  mutable p_done : bool;
}

type t = {
  net : Dumbbell.t;
  tcp : Tcp_config.t;
  pool : int;
  rtt : float;
  max_conns : int;
  hangs : Taq_metrics.Hangs.t option;
  on_fetch_done : fetch -> unit;
  queue : pending_fetch Queue.t;
  mutable active : int;
  mutable started : bool;
  mutable done_fetches : fetch list;
  mutable in_flight : int;  (* fetches started but not finished *)
  mutable all_requests : pending_fetch list;  (* reverse request order *)
  mutable flows : int list;
}

let create ~net ~tcp ~pool ~rtt ~max_conns ?hangs ?(on_fetch_done = fun _ -> ()) () =
  if max_conns < 1 then invalid_arg "Web_session.create: max_conns";
  {
    net;
    tcp;
    pool;
    rtt;
    max_conns;
    hangs;
    on_fetch_done;
    queue = Queue.create ();
    active = 0;
    started = false;
    done_fetches = [];
    in_flight = 0;
    all_requests = [];
    flows = [];
  }

let now t = Sim.now (Dumbbell.sim t.net)

let segments_for t size =
  Stdlib.max 1
    ((size + t.tcp.Tcp_config.mss - 1) / t.tcp.Tcp_config.mss)

let rec maybe_start_next t =
  if t.active < t.max_conns && not (Queue.is_empty t.queue) then begin
    let pf = Queue.pop t.queue in
    t.active <- t.active + 1;
    let started_at = now t in
    let finish finished_at =
      t.active <- t.active - 1;
      t.in_flight <- t.in_flight - 1;
      pf.p_done <- true;
      let fetch =
        {
          size = pf.p_size;
          requested_at = pf.p_requested_at;
          started_at;
          finished_at;
        }
      in
      t.done_fetches <- fetch :: t.done_fetches;
      t.on_fetch_done fetch;
      maybe_start_next t
    in
    let session =
      Tcp_session.create ~net:t.net ~config:t.tcp ~pool:t.pool ~rtt_prop:t.rtt
        ~total_segments:(segments_for t pf.p_size)
        ~on_complete:finish
        ~on_fail:(fun _ -> finish nan)
        ()
    in
    t.in_flight <- t.in_flight + 1;
    let flow = Tcp_session.flow_id session in
    t.flows <- flow :: t.flows;
    let receiver = Tcp_session.receiver session in
    Tcp_receiver.on_segment receiver (fun _seq ->
        Option.iter
          (fun h -> Taq_metrics.Hangs.note_data h ~pool:t.pool ~time:(now t))
          t.hangs);
    Tcp_session.start session;
    maybe_start_next t
  end

let request t ~size =
  let pf = { p_size = size; p_requested_at = now t; p_done = false } in
  t.all_requests <- pf :: t.all_requests;
  Queue.push pf t.queue;
  if t.started then maybe_start_next t

let start t =
  if not t.started then begin
    t.started <- true;
    Option.iter
      (fun h ->
        Taq_metrics.Hangs.note_session_start h ~pool:t.pool ~time:(now t))
      t.hangs;
    maybe_start_next t
  end

let fetches t =
  (* Completed fetches plus unfinished ones, in request order. *)
  let completed = List.rev t.done_fetches in
  let unfinished =
    t.all_requests |> List.rev
    |> List.filter (fun pf -> not pf.p_done)
    |> List.map (fun pf ->
           {
             size = pf.p_size;
             requested_at = pf.p_requested_at;
             started_at = nan;
             finished_at = nan;
           })
  in
  completed @ unfinished

let completed t =
  List.rev
    (List.filter (fun f -> not (Float.is_nan f.finished_at)) t.done_fetches)

let pending t = Queue.length t.queue + t.in_flight

let flow_ids t = List.rev t.flows

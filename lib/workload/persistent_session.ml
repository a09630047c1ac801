module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Tcp_config = Taq_tcp.Tcp_config
module Tcp_session = Taq_tcp.Tcp_session
module Tcp_sender = Taq_tcp.Tcp_sender

type fetch = { size : int; requested_at : float; finished_at : float }

type in_flight = {
  f_size : int;
  f_requested_at : float;
  f_boundary : int;  (** snd_una value at which this object is done *)
}

type conn = {
  session : Tcp_session.t;
  mutable queue : in_flight list;  (** oldest first *)
  mutable appended : int;  (** total segments handed to the sender *)
}

type t = {
  net : Dumbbell.t;
  tcp : Tcp_config.t;
  mutable conns : conn array;
  on_fetch_done : fetch -> unit;
  mutable done_fetches : fetch list;
  mutable started : bool;
}

let now t = Sim.now (Dumbbell.sim t.net)

let segments_for size =
  Stdlib.max 1 ((size + Tcp_config.mss - 1) / Tcp_config.mss)

let create ~net ~tcp ~pool ~rtt ~conns ?(on_fetch_done = fun _ -> ()) () =
  if conns < 1 then invalid_arg "Persistent_session.create: conns";
  let t =
    {
      net;
      tcp;
      conns = [||];
      on_fetch_done;
      done_fetches = [];
      started = false;
    }
  in
  let make_conn _ =
    let session =
      Tcp_session.create ~net ~config:tcp ~pool ~rtt_prop:rtt ~total_segments:0
        ~close_on_drain:false ()
    in
    let conn = { session; queue = []; appended = 0 } in
    (* Completion of pipelined objects is observed through the sender's
       cumulative-ack progress crossing object boundaries. *)
    Tcp_sender.on_progress (Tcp_session.sender session) (fun snd_una ->
        let rec pop () =
          match conn.queue with
          | head :: rest when snd_una >= head.f_boundary ->
              conn.queue <- rest;
              let fetch =
                {
                  size = head.f_size;
                  requested_at = head.f_requested_at;
                  finished_at = now t;
                }
              in
              t.done_fetches <- fetch :: t.done_fetches;
              t.on_fetch_done fetch;
              pop ()
          | _ :: _ | [] -> ()
        in
        pop ());
    conn
  in
  t.conns <- Array.init conns make_conn;
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter (fun c -> Tcp_session.start c.session) t.conns
  end

let request t ~size =
  (* Least-loaded connection: fewest queued objects, ties by fewest
     pending segments. *)
  let best = ref t.conns.(0) in
  Array.iter
    (fun c ->
      if List.length c.queue < List.length !best.queue then best := c)
    t.conns;
  let c = !best in
  let segments = segments_for size in
  c.appended <- c.appended + segments;
  c.queue <-
    c.queue
    @ [ { f_size = size; f_requested_at = now t; f_boundary = c.appended } ];
  Tcp_sender.append_data (Tcp_session.sender c.session) ~segments

let completed t = List.rev t.done_fetches

let pending t =
  Array.fold_left (fun acc c -> acc + List.length c.queue) 0 t.conns

let flow_ids t =
  Array.to_list (Array.map (fun c -> Tcp_session.flow_id c.session) t.conns)

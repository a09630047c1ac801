module Sim = Taq_engine.Sim
module Packet = Taq_net.Packet
module Check = Taq_check.Check
module C = Tcp_config

type stats = {
  data_sent : int;
  retx_sent : int;
  timeouts : int;
  fast_retransmits : int;
  syn_sent : int;
  max_backoff_seen : int;
}

type state = Closed | Syn_sent | Established | Complete | Failed

(* Fixed parts of the paper's TCP setup (see Tcp_config). *)
let init_ssthresh = 64.0

let dupack_thresh = 3

let max_backoff = 64

let syn_timeout = 3.0

(* Large: the paper's clients retry until admitted. *)
let max_syn_retries = 1000

(* The sender's mutable floats live together in this all-float record:
   OCaml stores them flat (unboxed), whereas a mutable float field in
   the mixed record below would box on every store — and cwnd is
   updated on every ack. [cubic_wmax]/[cubic_t0] are nan before any
   loss. *)
type window = {
  mutable cwnd : float;
  mutable ssthresh : float;
  (* CUBIC growth state: window before the last reduction and the time
     of that reduction. *)
  mutable cubic_wmax : float;
  mutable cubic_t0 : float;
  mutable syn_sent_at : float;
}

type t = {
  sim : Sim.t;
  config : C.t;
  alloc : Packet.alloc;  (* the network's packet-uid allocator *)
  flow : int;
  pool : int;
  mutable total : int;
  close_on_drain : bool;
  transmit : Packet.t -> unit;
  on_complete : float -> unit;
  on_fail : float -> unit;
  sb : Scoreboard.t;
  rto : Rto.t;
  mutable state : state;
  mutable snd_una : int;
  mutable next_seq : int;
  w : window;
  mutable dupacks : int;
  mutable inflation : int;  (* dupack window inflation during recovery *)
  mutable in_recovery : bool;
  mutable recover : int;  (* highest seq sent when recovery began *)
  mutable backoff : int;
  (* Re-armable timers: re-arming the RTO on every ack is usually a
     float store. [rtx_fn] and [syn_fn] are their actions, allocated
     once at [create] so arming allocates nothing. *)
  rtx_timer : Sim.timer;
  syn_timer : Sim.timer;
  mutable rtx_fn : unit -> unit;
  mutable syn_fn : unit -> unit;
  mutable syn_retries : int;
  (* counters *)
  mutable n_data_sent : int;
  mutable n_retx_sent : int;
  mutable n_timeouts : int;
  mutable n_fast_retransmits : int;
  mutable n_syn_sent : int;
  mutable max_backoff_seen : int;
  mutable transmit_listeners : (Packet.t -> unit) list;
  mutable progress_listeners : (int -> unit) list;
  check : Check.t;
  checking : bool;  (* [Check.on check Tcp], fixed: read once at create *)
}

(* Window / scoreboard / RTO invariants, verified after every ack and
   every retransmission timeout when the [Tcp] group is enabled. *)
let verify t ~where =
  let c = t.check in
  Check.require c Check.Tcp (t.w.cwnd >= 1.0) (fun () ->
      Printf.sprintf "flow %d %s: cwnd=%g < 1" t.flow where t.w.cwnd);
  Check.require c Check.Tcp (t.w.ssthresh >= 2.0) (fun () ->
      Printf.sprintf "flow %d %s: ssthresh=%g < 2" t.flow where t.w.ssthresh);
  Check.require c Check.Tcp
    (0 <= t.snd_una && t.snd_una <= t.next_seq)
    (fun () ->
      Printf.sprintf "flow %d %s: sequence space broken: snd_una=%d next_seq=%d"
        t.flow where t.snd_una t.next_seq);
  Check.require c Check.Tcp (t.next_seq <= t.total) (fun () ->
      Printf.sprintf "flow %d %s: next_seq=%d beyond total=%d" t.flow where
        t.next_seq t.total);
  Check.require c Check.Tcp (t.inflation >= 0) (fun () ->
      Printf.sprintf "flow %d %s: negative window inflation %d" t.flow where
        t.inflation);
  Check.require c Check.Tcp
    (1 <= t.backoff && t.backoff <= max_backoff)
    (fun () ->
      Printf.sprintf "flow %d %s: backoff=%d outside [1,%d]" t.flow where
        t.backoff max_backoff);
  let pipe = Scoreboard.pipe t.sb
  and lost = Scoreboard.lost_count t.sb
  and sacked = Scoreboard.sacked_count t.sb
  and tracked = Scoreboard.tracked t.sb in
  Check.require c Check.Tcp
    (pipe >= 0 && lost >= 0 && sacked >= 0)
    (fun () ->
      Printf.sprintf "flow %d %s: negative scoreboard counter pipe=%d lost=%d \
                      sacked=%d"
        t.flow where pipe lost sacked);
  Check.require c Check.Tcp
    (pipe + lost + sacked = tracked)
    (fun () ->
      Printf.sprintf
        "flow %d %s: scoreboard accounting broken: pipe=%d + lost=%d + \
         sacked=%d <> tracked=%d"
        t.flow where pipe lost sacked tracked);
  let rto = Rto.timeout t.rto in
  Check.require c Check.Tcp
    (rto >= t.config.C.min_rto && rto <= Rto.max_rto)
    (fun () ->
      Printf.sprintf "flow %d %s: RTO=%g outside [%g,%g]" t.flow where rto
        t.config.C.min_rto Rto.max_rto)

let stats t =
  {
    data_sent = t.n_data_sent;
    retx_sent = t.n_retx_sent;
    timeouts = t.n_timeouts;
    fast_retransmits = t.n_fast_retransmits;
    syn_sent = t.n_syn_sent;
    max_backoff_seen = t.max_backoff_seen;
  }

let state t = t.state

let cwnd t = t.w.cwnd

let on_transmit t f = t.transmit_listeners <- f :: t.transmit_listeners

let on_progress t f = t.progress_listeners <- f :: t.progress_listeners

(* [Float.min Rto.max_rto]: the timeout is never nan, so a plain
   comparison gives the same float without the library call. *)
let current_rto t =
  let rto = Rto.timeout t.rto *. float_of_int t.backoff in
  if rto < Rto.max_rto then rto else Rto.max_rto

let effective_window t = int_of_float t.w.cwnd + t.inflation

(* RFC 8312 constants. *)
let cubic_c = 0.4

let cubic_beta = 0.7

(* Multiplicative decrease factor on a loss event. *)
let decrease_factor t =
  match t.config.C.growth with C.Aimd -> 0.5 | C.Cubic -> cubic_beta

let note_window_reduction t =
  match t.config.C.growth with
  | C.Aimd -> ()
  | C.Cubic ->
      t.w.cubic_wmax <- t.w.cwnd;
      t.w.cubic_t0 <- Sim.now t.sim

(* Congestion-avoidance growth applied once per new cumulative ack. *)
let grow_congestion_avoidance t =
  match t.config.C.growth with
  | C.Aimd -> t.w.cwnd <- t.w.cwnd +. (1.0 /. t.w.cwnd)
  | C.Cubic ->
      if Float.is_nan t.w.cubic_t0 then
        (* No loss yet: same additive growth as AIMD. *)
        t.w.cwnd <- t.w.cwnd +. (1.0 /. t.w.cwnd)
      else begin
        let elapsed = Sim.now t.sim -. t.w.cubic_t0 in
        let k =
          Float.cbrt (t.w.cubic_wmax *. (1.0 -. cubic_beta) /. cubic_c)
        in
        let target =
          (cubic_c *. ((elapsed -. k) ** 3.0)) +. t.w.cubic_wmax
        in
        let increment =
          if target > t.w.cwnd then
            (* Approach the cubic target, at most one segment per ack
               (the RFC's growth-rate bound at our ack granularity). *)
            Float.min 1.0 ((target -. t.w.cwnd) /. t.w.cwnd)
          else
            (* Plateau region: minimal probing growth. *)
            0.01 /. t.w.cwnd
        in
        t.w.cwnd <- t.w.cwnd +. increment
      end

(* --- transmission ----------------------------------------------------- *)

(* Top-level listener iteration: [List.iter (fun f -> f x) ...] would
   allocate the closure on every call, and these run per packet/ack. *)
let rec notify_all : 'a. ('a -> unit) list -> 'a -> unit =
 fun fs x ->
  match fs with
  | [] -> ()
  | f :: rest ->
      f x;
      notify_all rest x

let emit t pkt =
  notify_all t.transmit_listeners pkt;
  t.transmit pkt

let send_segment t ~seq ~retx =
  let now = Sim.now t.sim in
  Scoreboard.on_transmit t.sb ~seq ~at:now ~retx;
  t.n_data_sent <- t.n_data_sent + 1;
  if retx then t.n_retx_sent <- t.n_retx_sent + 1;
  let pkt =
    Packet.make_exact ~alloc:t.alloc ~flow:t.flow ~pool:t.pool
      ~kind:Packet.Data ~seq ~size:C.packet_bytes ~retx ~sacks:[]
      ~sent_at:now
  in
  emit t pkt

let rec on_rtx_timeout t =
  if t.state = Established && t.snd_una < t.next_seq then begin
    t.n_timeouts <- t.n_timeouts + 1;
    let flight = Scoreboard.pipe t.sb + Scoreboard.lost_count t.sb in
    note_window_reduction t;
    t.w.ssthresh <- Float.max 2.0 (float_of_int flight *. decrease_factor t);
    Scoreboard.mark_all_lost t.sb;
    t.w.cwnd <- 1.0;
    t.inflation <- 0;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.backoff <- Stdlib.min (t.backoff * 2) max_backoff;
    if t.backoff > t.max_backoff_seen then t.max_backoff_seen <- t.backoff;
    try_send t;
    if t.checking then verify t ~where:"rtx-timeout"
  end

and arm_timer t =
  if t.state = Established && t.snd_una < t.next_seq then
    Sim.arm t.rtx_timer ~delay:(current_rto t) t.rtx_fn
  else Sim.disarm t.rtx_timer

and try_send t =
  if t.state = Established then begin
    let progress = ref true in
    while !progress do
      progress := false;
      if Scoreboard.pipe t.sb < effective_window t then begin
        let lost = Scoreboard.next_lost_seq t.sb in
        if lost >= 0 then begin
          send_segment t ~seq:lost ~retx:true;
          progress := true
        end
        else if
          t.next_seq < t.total && t.next_seq - t.snd_una < t.config.C.rcv_wnd
        then begin
          let seq = t.next_seq in
          t.next_seq <- t.next_seq + 1;
          send_segment t ~seq ~retx:false;
          progress := true
        end
      end
    done;
    if not (Sim.armed t.rtx_timer) then arm_timer t
  end

(* --- connection establishment ----------------------------------------- *)

let rec send_syn t =
  t.n_syn_sent <- t.n_syn_sent + 1;
  t.w.syn_sent_at <- Sim.now t.sim;
  let pkt =
    Packet.make ~alloc:t.alloc ~flow:t.flow ~pool:t.pool ~kind:Packet.Syn
      ~seq:0 ~size:C.header_bytes ~sent_at:(Sim.now t.sim) ()
  in
  emit t pkt;
  let delay =
    if t.config.C.syn_retry_doubling then
      Float.min Rto.max_rto
        (syn_timeout *. (2.0 ** float_of_int t.syn_retries))
    else syn_timeout
  in
  Sim.arm t.syn_timer ~delay t.syn_fn

and on_syn_timeout t =
  if t.state = Syn_sent then begin
    t.syn_retries <- t.syn_retries + 1;
    if t.syn_retries > max_syn_retries then begin
      t.state <- Failed;
      t.on_fail (Sim.now t.sim)
    end
    else send_syn t
  end

let create ~sim ~config ~alloc ~flow ?(pool = -1) ~total_segments
    ?(close_on_drain = true) ~transmit ?(on_complete = fun _ -> ())
    ?(on_fail = fun _ -> ()) () =
  let check = Sim.check sim in
  let t =
    {
      sim;
      config;
      alloc;
      flow;
      pool;
      total = total_segments;
      close_on_drain;
      transmit;
      on_complete;
      on_fail;
      sb = Scoreboard.create ();
      rto = Rto.create ~min_rto:config.C.min_rto;
      state = Closed;
      snd_una = 0;
      next_seq = 0;
      w =
        {
          cwnd = config.C.init_cwnd;
          ssthresh = init_ssthresh;
          cubic_wmax = nan;
          cubic_t0 = nan;
          syn_sent_at = 0.0;
        };
      dupacks = 0;
      inflation = 0;
      in_recovery = false;
      recover = -1;
      backoff = 1;
      rtx_timer = Sim.timer sim;
      syn_timer = Sim.timer sim;
      rtx_fn = ignore;
      syn_fn = ignore;
      syn_retries = 0;
      n_data_sent = 0;
      n_retx_sent = 0;
      n_timeouts = 0;
      n_fast_retransmits = 0;
      n_syn_sent = 0;
      max_backoff_seen = 1;
      transmit_listeners = [];
      progress_listeners = [];
      check;
      checking = Check.on check Check.Tcp;
    }
  in
  t.rtx_fn <- (fun () -> on_rtx_timeout t);
  t.syn_fn <- (fun () -> on_syn_timeout t);
  t

let complete t =
  if t.state <> Complete then begin
    t.state <- Complete;
    Sim.disarm t.rtx_timer;
    Sim.disarm t.syn_timer;
    t.on_complete (Sim.now t.sim)
  end

let append_data t ~segments =
  if segments < 0 then invalid_arg "Tcp_sender.append_data: negative";
  (match t.state with
  | Complete | Failed -> invalid_arg "Tcp_sender.append_data: connection closed"
  | Closed | Syn_sent | Established -> ());
  if segments > 0 then begin
    t.total <- (if t.total = max_int then max_int else t.total + segments);
    if t.state = Established then try_send t
  end

let drained t = t.snd_una >= t.total

let should_close t = drained t && t.close_on_drain

let establish t =
  t.state <- Established;
  if t.total = 0 && t.close_on_drain then complete t
  else try_send t

let start t =
  match t.state with
  | Closed ->
      if t.config.C.use_syn then begin
        t.state <- Syn_sent;
        send_syn t
      end
      else establish t
  | Syn_sent | Established | Complete | Failed ->
      invalid_arg "Tcp_sender.start: already started"

(* --- acknowledgement processing --------------------------------------- *)

(* SACK blocks must be well-formed half-open ranges strictly above the
   cumulative ack and within what we have actually sent, and pairwise
   disjoint. (They are *not* required to be ascending: the receiver
   reports the most recently changed block first, per RFC 2018.) *)
let verify_sack_blocks t (p : Packet.t) =
  let c = t.check in
  List.iter
    (fun (lo, hi) ->
      Check.require c Check.Tcp (lo < hi) (fun () ->
          Printf.sprintf "flow %d: empty/inverted SACK block [%d,%d)" t.flow lo
            hi);
      Check.require c Check.Tcp (lo > p.seq) (fun () ->
          Printf.sprintf "flow %d: SACK block [%d,%d) not above cum ack %d"
            t.flow lo hi p.seq);
      Check.require c Check.Tcp (hi <= t.next_seq) (fun () ->
          Printf.sprintf "flow %d: SACK block [%d,%d) beyond next_seq=%d" t.flow
            lo hi t.next_seq))
    p.sacks;
  let rec disjoint = function
    | [] -> ()
    | (lo, hi) :: rest ->
        List.iter
          (fun (lo', hi') ->
            Check.require c Check.Tcp (hi <= lo' || hi' <= lo) (fun () ->
                Printf.sprintf
                  "flow %d: overlapping SACK blocks [%d,%d) and [%d,%d)" t.flow
                  lo hi lo' hi'))
          rest;
        disjoint rest
  in
  disjoint p.sacks

let apply_sacks t (p : Packet.t) =
  if t.checking then verify_sack_blocks t p;
  match t.config.C.variant with
  | C.Newreno -> ()
  | C.Sack ->
      List.iter
        (fun (lo, hi) ->
          for seq = lo to hi - 1 do
            if seq >= p.seq then Scoreboard.mark_sacked t.sb seq
          done)
        p.sacks;
      (* Loss inference: an in-flight segment with >= dupack_thresh
         sacked segments above it is presumed lost. *)
      let lost = ref [] in
      Scoreboard.iter_in_flight t.sb (fun seq ->
          if Scoreboard.sacked_above t.sb seq >= dupack_thresh then
            lost := seq :: !lost);
      List.iter (Scoreboard.mark_lost t.sb) !lost

let enter_recovery t =
  t.in_recovery <- true;
  t.recover <- t.next_seq - 1;
  t.n_fast_retransmits <- t.n_fast_retransmits + 1;
  let flight = Scoreboard.pipe t.sb + Scoreboard.lost_count t.sb in
  note_window_reduction t;
  t.w.ssthresh <- Float.max 2.0 (float_of_int flight *. decrease_factor t);
  t.w.cwnd <- t.w.ssthresh;
  (* NewReno emulates departures with window inflation; a SACK sender
     must not — the scoreboard already removes sacked segments from the
     pipe, and doing both compounds into runaway growth. *)
  (match t.config.C.variant with
  | C.Newreno -> t.inflation <- dupack_thresh
  | C.Sack -> t.inflation <- 0);
  Scoreboard.mark_lost t.sb t.snd_una;
  try_send t

let handle_new_ack t cum =
  let newly = cum - t.snd_una in
  (* Karn: sample RTT only from a never-retransmitted segment; a valid
     sample also collapses the RTO backoff. *)
  let sent_at = Scoreboard.sent_time t.sb (cum - 1) in
  if (not (Float.is_nan sent_at)) && not (Scoreboard.sent_ever_retx t.sb (cum - 1))
  then begin
    Rto.observe t.rto (Sim.now t.sim -. sent_at);
    t.backoff <- 1
  end;
  Scoreboard.ack_range t.sb ~from_:t.snd_una ~until:cum;
  t.snd_una <- cum;
  if t.in_recovery then begin
    if cum > t.recover then begin
      (* Full ack: recovery over, deflate to ssthresh. *)
      t.in_recovery <- false;
      t.inflation <- 0;
      t.dupacks <- 0;
      t.w.cwnd <- t.w.ssthresh
    end
    else begin
      (* Partial ack (NewReno): the next unacked segment was lost too.
         Deflate the dupack inflation by the amount acked minus one so
         the retransmission goes out without a burst of new data. *)
      Scoreboard.mark_lost t.sb cum;
      t.inflation <- Stdlib.max 0 (t.inflation - (newly - 1))
    end
  end
  else begin
    t.dupacks <- 0;
    if t.w.cwnd < t.w.ssthresh then t.w.cwnd <- t.w.cwnd +. 1.0
    else grow_congestion_avoidance t
  end;
  arm_timer t;
  notify_all t.progress_listeners t.snd_una;
  if should_close t then complete t else try_send t

let handle_dupack t =
  if t.snd_una < t.next_seq then begin
    t.dupacks <- t.dupacks + 1;
    if t.in_recovery then begin
      (match t.config.C.variant with
      | C.Newreno -> t.inflation <- t.inflation + 1
      | C.Sack -> ());
      try_send t
    end
    else begin
      let sack_triggered =
        t.config.C.variant = C.Sack
        && Scoreboard.sacked_above t.sb t.snd_una >= dupack_thresh
      in
      if t.dupacks >= dupack_thresh || sack_triggered then
        enter_recovery t
      else try_send t
    end
  end

let on_ack t (p : Packet.t) =
  match (t.state, p.kind) with
  | Syn_sent, Packet.Syn_ack ->
      Sim.disarm t.syn_timer;
      if t.syn_retries = 0 then begin
        Rto.observe t.rto (Sim.now t.sim -. t.w.syn_sent_at);
        t.backoff <- 1
      end;
      establish t
  | Established, Packet.Ack ->
      apply_sacks t p;
      if p.seq > t.snd_una then handle_new_ack t p.seq
      else if p.seq = t.snd_una then handle_dupack t
      else ();
      (* stale ack below snd_una: ignored *)
      if t.checking then verify t ~where:"on-ack"
  | (Closed | Complete | Failed), _
  | Established, (Packet.Syn_ack | Packet.Syn | Packet.Data | Packet.Fin)
  | Syn_sent, (Packet.Ack | Packet.Syn | Packet.Data | Packet.Fin) ->
      ()

module Sim = Taq_engine.Sim
module Dumbbell = Taq_net.Dumbbell
module Link = Taq_net.Link
module Prng = Taq_util.Prng
module Obs = Taq_obs.Obs

type stats = {
  flaps : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
  acks_delayed : int;
  restarts : int;
  tracked_before_restart : int;
  flooded : int;
  brownouts : int;
  jittered : int;
}

type t = {
  sim : Sim.t;
  prng : Prng.t;
  plan : Plan.t;
  obs : Obs.t;
  mutable flaps : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable acks_delayed : int;
  mutable restarts : int;
  mutable tracked_before_restart : int;
  mutable flooded : int;
  mutable brownouts : int;
  mutable jittered : int;
}

let in_window (w : Plan.window) ~now = w.Plan.from_ <= now && now < w.Plan.until

(* Observability hook: each injected fault bumps a [fault.<kind>]
   labeled counter and, when tracing, drops an instant on the fault
   track so injections line up with link spans in the trace viewer. *)
let fired t kind =
  if Obs.enabled t.obs then Obs.labeled t.obs ("fault." ^ kind) 1;
  if Obs.tracing t.obs then
    Obs.instant t.obs ~name:kind ~cat:"fault" ~ts_s:(Sim.now t.sim) ()

(* The forward tap walks the plan's windowed clauses in plan order and
   applies the first one that fires; at most one PRNG draw per active
   clause per packet, so the decision stream is a pure function of the
   (deterministic) delivery order. *)
let fwd_tap t pkt forward =
  let now = Sim.now t.sim in
  let rec apply = function
    | [] -> forward pkt
    | Plan.Corrupt { w; p } :: rest when in_window w ~now ->
        if Prng.bernoulli t.prng ~p then begin
          t.corrupted <- t.corrupted + 1;
          fired t "corrupt"
        end
        else apply rest
    | Plan.Loss { p } :: rest ->
        if Prng.bernoulli t.prng ~p then begin
          t.corrupted <- t.corrupted + 1;
          fired t "loss"
        end
        else apply rest
    | Plan.Duplicate { w; p } :: rest when in_window w ~now ->
        if Prng.bernoulli t.prng ~p then begin
          t.duplicated <- t.duplicated + 1;
          fired t "duplicate";
          forward pkt;
          forward pkt
        end
        else apply rest
    | Plan.Jitter { at; dur; ms } :: _ when at <= now && now < at +. dur ->
        (* Every windowed packet is held back by a fresh bounded draw,
           so consecutive packets can overtake each other — that is the
           jitter. One PRNG draw per packet keeps the decision stream a
           pure function of the delivery order. *)
        let delay = Prng.uniform t.prng ~lo:0.0 ~hi:(ms /. 1000.0) in
        t.jittered <- t.jittered + 1;
        fired t "jitter";
        Sim.schedule_after t.sim ~delay (fun () -> forward pkt)
    | Plan.Reorder { w; p; delay } :: rest when in_window w ~now ->
        if Prng.bernoulli t.prng ~p then begin
          t.reordered <- t.reordered + 1;
          fired t "reorder";
          (* Hold the packet back; packets delivered in the meantime
             overtake it. The continuation re-resolves the flow at
             firing time, so a finished flow swallows it. *)
          Sim.schedule_after t.sim ~delay (fun () -> forward pkt)
        end
        else apply rest
    | _ :: rest -> apply rest
  in
  apply t.plan

let rev_tap t pkt forward =
  let now = Sim.now t.sim in
  let delay =
    List.find_map
      (function
        | Plan.Ack_delay { w; delay } when in_window w ~now -> Some delay
        | _ -> None)
      t.plan
  in
  match delay with
  | Some delay ->
      t.acks_delayed <- t.acks_delayed + 1;
      fired t "ack_delay";
      Sim.schedule_after t.sim ~delay (fun () -> forward pkt)
  | None -> forward pkt

let wants_fwd_tap = function
  | Plan.Corrupt _ | Plan.Duplicate _ | Plan.Reorder _ | Plan.Loss _
  | Plan.Jitter _ ->
      true
  | Plan.Flap _ | Plan.Ack_delay _ | Plan.Restart _ | Plan.Flood _
  | Plan.Brownout _ ->
      false

let wants_rev_tap = function Plan.Ack_delay _ -> true | _ -> false

let install ?taq ~net ~prng plan =
  let sim = Dumbbell.sim net in
  let link = Dumbbell.link net in
  let t =
    {
      sim;
      prng;
      plan;
      obs = Sim.obs sim;
      flaps = 0;
      corrupted = 0;
      duplicated = 0;
      reordered = 0;
      acks_delayed = 0;
      restarts = 0;
      tracked_before_restart = 0;
      flooded = 0;
      brownouts = 0;
      jittered = 0;
    }
  in
  (* Each flood clause gets its own flow-id space and its own split
     PRNG stream, so several floods coexist deterministically and the
     taps' Bernoulli draws above are not perturbed. *)
  let next_flood_base = ref 1_000_000 in
  if List.exists wants_fwd_tap plan then
    Dumbbell.set_fwd_interceptor net (Some (fwd_tap t));
  if List.exists wants_rev_tap plan then
    Dumbbell.set_rev_interceptor net (Some (rev_tap t));
  List.iter
    (function
      | Plan.Flap { at; down_for } ->
          Sim.schedule sim ~at (fun () ->
              t.flaps <- t.flaps + 1;
              fired t "flap";
              Link.set_up link false);
          Sim.schedule sim ~at:(at +. down_for) (fun () ->
              Link.set_up link true)
      | Plan.Restart { at } -> (
          match taq with
          | None -> () (* no control-plane state to lose *)
          | Some disc ->
              Sim.schedule sim ~at (fun () ->
                  t.tracked_before_restart <-
                    Taq_core.Flow_tracker.tracked_flow_count
                      (Taq_core.Taq_disc.tracker disc);
                  Taq_core.Taq_disc.restart disc;
                  t.restarts <- t.restarts + 1;
                  fired t "restart"))
      | Plan.Flood { at; dur; rate; kind } ->
          let kind =
            match Taq_workload.Flood.kind_of_string kind with
            | Some k -> k
            | None ->
                (* unreachable for parsed plans; fail loudly for
                   hand-built ones *)
                invalid_arg ("Injector.install: flood kind " ^ kind)
          in
          let flow_base = !next_flood_base in
          next_flood_base := flow_base + 1_000_000;
          ignore
            (Taq_workload.Flood.install ~flow_base
               ~on_send:(fun () ->
                 t.flooded <- t.flooded + 1;
                 fired t "flood")
               ~net ~prng:(Prng.split prng) ~kind ~rate ~at ~duration:dur ())
      | Plan.Brownout { at; dur; frac } ->
          (* Degrade at [at], restore nominal rate at [at +. dur]. A
             packet mid-transmission keeps its scheduled completion;
             only packets starting afterwards see the derated rate —
             conservation-safe by construction (arrivals just queue
             behind the slower transmitter). *)
          Sim.schedule sim ~at (fun () ->
              t.brownouts <- t.brownouts + 1;
              fired t "brownout";
              Link.set_rate_factor link frac);
          Sim.schedule sim ~at:(at +. dur) (fun () ->
              Link.set_rate_factor link 1.0)
      | Plan.Corrupt _ | Plan.Duplicate _ | Plan.Reorder _ | Plan.Ack_delay _
      | Plan.Loss _ | Plan.Jitter _ ->
          ())
    plan;
  t

let stats t =
  {
    flaps = t.flaps;
    corrupted = t.corrupted;
    duplicated = t.duplicated;
    reordered = t.reordered;
    acks_delayed = t.acks_delayed;
    restarts = t.restarts;
    tracked_before_restart = t.tracked_before_restart;
    flooded = t.flooded;
    brownouts = t.brownouts;
    jittered = t.jittered;
  }

let injected_total t =
  t.flaps + t.corrupted + t.duplicated + t.reordered + t.acks_delayed
  + t.restarts + t.flooded + t.brownouts + t.jittered

let report t =
  Printf.sprintf
    "faults: flaps=%d corrupted=%d duplicated=%d reordered=%d acks_delayed=%d \
     restarts=%d flooded=%d brownouts=%d jittered=%d"
    t.flaps t.corrupted t.duplicated t.reordered t.acks_delayed t.restarts
    t.flooded t.brownouts t.jittered

(** Shared scenario plumbing for the figure-reproduction experiments:
    building a bottleneck with any of the evaluated queue disciplines,
    spawning long-running and finite flows, and collecting the standard
    measurements. *)

type queue =
  | Droptail
  | Red  (** RED with Floyd's default parameters *)
  | Sfq
  | Drr  (** deficit round robin, the classic fair-queuing baseline *)
  | Choke  (** CHOKe random peek-and-drop over RED thresholds *)
  | Choked  (** stateless CHOKe variant with random push-out *)
  | Codel  (** sojourn-time AQM, drops at dequeue *)
  | Las  (** least-attained-service + per-flow fair dropping *)
  | Taq of Taq_core.Taq_config.t
      (** {!make_env} replaces the config's [capacity_pkts] and
          [capacity_bps] with its own *)

val queue_name : queue -> string

(** {1 Disciplines by name} *)

val disc_names : string list
(** Every discipline's canonical name, in table order: droptail, red,
    sfq, drr, choke, choked, codel, las, taq, taq+ac. *)

val disc_of_string : string -> (string, string) result
(** The canonical name of a disc name or alias ([dt] for droptail,
    [taq-ac] for taq+ac), or an error naming the unknown name. *)

val queue_of_disc : ?guard_cap:int -> string -> queue
(** The queue a disc name or alias selects. TAQ variants get
    {!taq_config} (with admission control for taq+ac).
    @raise Invalid_argument on an unknown name. *)

type env = {
  sim : Taq_engine.Sim.t;
  net : Taq_net.Dumbbell.t;
  taq : Taq_core.Taq_disc.t option;  (** present when [queue] was Taq *)
  loss : Taq_metrics.Loss_monitor.t;
  slicer : Taq_metrics.Slicer.t;
  evolution : Taq_metrics.Flow_evolution.t;
  prng : Taq_util.Prng.t;
  check : Taq_check.Check.t;
      (** the env-wide invariant checker (shared by sim, link, queue
          and TCP senders) *)
  obs : Taq_obs.Obs.t;
      (** the env-wide observability instance (shared the same way);
          snapshot it with [Taq_obs.Obs.snapshot] after a run *)
  faults : Taq_fault.Injector.t option;
      (** present when a fault plan (explicit or the run spec's
          [--faults]) was installed on this environment *)
  resil : Taq_resil.Monitor.t option;
      (** present when resilience monitoring was requested (an
          explicit [resil] or the run spec's [--resil]); armed by
          {!run}, harvested with {!resil_rows} *)
}

val make_env :
  ?check:Taq_check.Check.t ->
  ?obs:Taq_obs.Obs.t ->
  ?faults:Taq_fault.Plan.t ->
  ?resil:bool ->
  queue:queue ->
  capacity_bps:float ->
  buffer_pkts:int ->
  ?slice:float ->
  ?seed:int ->
  unit ->
  env
(** A fresh simulator, dumbbell and recorders: goodput in [slice]-second
    slices (default 20) and flow evolution in 5 s windows. The
    bottleneck runs at [capacity_bps] and buffers [buffer_pkts]
    packets: this is the one place a run's queue gets its size, so a
    TAQ config takes both here, whatever geometry it carried, and keeps
    every other field. The env is fully self-contained — flow ids and
    packet uids are allocated by the env's own network, so independent
    envs can run concurrently in separate domains. [check], [obs],
    [faults] and [resil] default to what the installed
    {!Run_spec.current} asks for; an explicit argument wins (only
    tests pass [check] or [obs]: the program sets both through the run
    spec). [check] instruments every layer; when the Queueing group is
    enabled the installed discipline is additionally wrapped in
    {!Taq_queueing.Checked} shadow-model cross-checking. [obs] threads
    one observability instance through the simulator, link, discipline
    (via {!Taq_queueing.Observed}) and fault injector; pass an explicit
    instance to isolate a single env's counters. [faults] attaches a
    fault injector to the bottleneck, seeded from a split of the env's
    root PRNG; fault-free envs draw exactly the random streams they
    always did. [resil] attaches a {!Taq_resil.Monitor} to the
    bottleneck against the resolved fault plan; the monitor is
    read-only, so attaching it never changes the simulated trajectory.
    @raise Invalid_argument ["Taq_config.default: capacity_pkts"] (or
    ["... capacity_bps"]) when a TAQ queue gets a geometry
    [Taq_config.default] rejects. *)

val taq_config :
  ?admission:bool -> ?guard_cap:int -> unit -> Taq_core.Taq_config.t
(** The TAQ configuration used throughout the evaluation (estimated
    epochs, paper defaults) at a placeholder geometry of one packet
    and 1 bps, which {!make_env} replaces. [guard_cap] enables the
    overload guard with that [max_tracked_flows] cap (flood drills /
    [--guard]). *)

val default_tcp : Taq_tcp.Tcp_config.t
(** The evaluation's TCP: 500 B on-the-wire packets, NewReno, no
    delayed acks, SYN handshake off (long-flow experiments drive
    congestion dynamics, not setup). *)

val spawn_long_flows :
  env ->
  ?tcp:Taq_tcp.Tcp_config.t ->
  n:int ->
  rtt:float ->
  ?rtt_jitter:float ->
  unit ->
  int array
(** Start [n] infinite flows; returns their flow ids. Goodput is
    recorded in the env's slicer and evolution recorder. [rtt_jitter]
    spreads propagation RTTs uniformly in
    [rtt·(1-j) .. rtt·(1+j)]. *)

val spawn_finite_flow :
  env ->
  ?tcp:Taq_tcp.Tcp_config.t ->
  segments:int ->
  rtt:float ->
  ?at:float ->
  on_complete:(float -> unit) ->
  unit ->
  int
(** Start one finite flow, in no flow pool (optionally delayed to time
    [at]); returns its flow id. [on_complete] receives the completion time. *)

val run : env -> until:float -> unit
(** Arm the resilience monitor (when present) for [until], then run
    the simulator to [until]. *)

val resil_rows : env -> Taq_resil.Monitor.row list option
(** Per-metric resilience results (finalizing the monitor), when one
    was attached. *)

val utilization : env -> float

val measured_loss_rate : env -> float

val pkt_bytes : int
(** {!Taq_tcp.Tcp_config.packet_bytes}: 500 B, the paper's on-the-wire
    packet size. *)

val flows_for_fair_share :
  capacity_bps:float -> fair_share_bps:float -> int
(** Number of competing flows giving each the target fair share. *)

val buffer_for_rtts :
  capacity_bps:float -> rtt:float -> rtts:float -> int
(** Buffer size in packets equal to [rtts] round-trips of delay. *)

val taq_marker : queue
(** [queue_of_disc "taq"]: TAQ at the evaluation's config. *)

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

val queue_name : queue -> string

(** {1 Disciplines by name} *)

val disc_names : string list
(** Every discipline's canonical name, in table order: droptail, red,
    sfq, drr, choke, choked, codel, las, taq, taq+ac. *)

val disc_of_string : string -> (string, string) result
(** The canonical name of a disc name or alias ([dt] for droptail,
    [taq-ac] for taq+ac), or an error naming the unknown name. *)

val queue_of_disc :
  ?guard_cap:int -> ?capacity_bps:float -> ?buffer_pkts:int -> string ->
  queue
(** The queue a disc name or alias selects. TAQ variants get
    {!taq_config} (with admission control for taq+ac) at the given
    capacity and buffer; without them, at the placeholder geometry of
    {!taq_marker}, for drivers that {!resize} it per run.
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
  fluid : Taq_fluid.Source.t option;
      (** present when the env was built with [backend = Hybrid _] *)
  resil : Taq_resil.Monitor.t option;
      (** present when resilience monitoring was requested (explicit
          [resil] parameter or the run spec's [--resil]); armed by
          {!run}, harvested with {!resil_rows} *)
}

(** {1 Traffic backends}

    [Packet] is the default everywhere: every flow is a real
    packet-level TCP state machine, and nothing in the environment
    changes — runs are byte-identical to a build that predates the
    hybrid backend. [Hybrid] adds a mean-field fluid background
    aggregate ({!Taq_fluid}) on the bottleneck; the foreground cohort
    of real flows still traverses the disc packet by packet. *)

type backend = Packet | Hybrid of Taq_fluid.Model.params

val backend_name : backend -> string
(** ["packet" | "hybrid"]. *)

val make_env :
  ?check:Taq_check.Check.t ->
  ?obs:Taq_obs.Obs.t ->
  ?faults:Taq_fault.Plan.t ->
  ?resil:Taq_resil.Policy.params ->
  ?backend:backend ->
  queue:queue ->
  capacity_bps:float ->
  buffer_pkts:int ->
  ?slice:float ->
  ?evolution_window:float ->
  ?seed:int ->
  unit ->
  env
(** A fresh simulator, dumbbell and recorders. The env is fully
    self-contained — flow ids and packet uids are allocated by the
    env's own network, so independent envs can run concurrently in
    separate domains. [check], [obs], [faults] and [resil] default to
    what the installed {!Run_spec.current} asks for; an explicit
    argument wins (only tests pass [check] or [obs]: the program sets
    both through the run spec). [check] instruments every layer; when the Queueing
    group is enabled the installed discipline is additionally wrapped
    in {!Taq_queueing.Checked} shadow-model cross-checking. [obs]
    threads one observability instance through the simulator, link,
    discipline (via {!Taq_queueing.Observed}) and fault injector; pass
    an explicit instance to isolate a single env's counters. [faults]
    attaches a fault injector to the bottleneck, seeded from a split
    of the env's root PRNG; fault-free envs draw exactly the random
    streams they always did. [resil] attaches a {!Taq_resil.Monitor}
    to the bottleneck against the resolved fault plan; the monitor is
    read-only, so attaching it never changes the simulated trajectory.
    [backend] (default [Packet]) selects the traffic backend: [Hybrid p]
    attaches a {!Taq_fluid.Source} to the bottleneck (ticking every
    [p.dt] for the whole run) and, for indiscriminate disciplines
    (everything but TAQ), interposes the {!Taq_fluid.Shared_loss}
    reverse coupling in front of the queue. Packet-backend envs take
    exactly the construction path they always did — no extra PRNG
    splits, no wrappers — so their runs stay byte-identical. *)

val taq_config :
  ?admission:bool -> ?guard_cap:int -> capacity_bps:float ->
  buffer_pkts:int -> unit -> Taq_core.Taq_config.t
(** The TAQ configuration used throughout the evaluation (estimated
    epochs, paper defaults). [guard_cap] enables the overload guard
    with that [max_tracked_flows] cap (flood drills / [--guard]). *)

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
(** [queue_of_disc "taq"]: a TAQ queue selector at a placeholder
    geometry, which experiment drivers {!resize} per run. *)

val resize : capacity_bps:float -> buffer_pkts:int -> queue -> queue
(** [queue] sized for a run: a TAQ config is rebuilt by {!taq_config}
    at the run's capacity and buffer, keeping its admission control,
    tracker cap and overload guard; other disciplines are unchanged. *)

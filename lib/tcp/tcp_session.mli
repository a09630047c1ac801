(** A TCP connection wired over a {!Taq_net.Dumbbell} network: sender
    on the access side, receiver behind the bottleneck, acks on the
    uncongested return path. This is the unit every experiment
    composes. *)

type t

val create :
  net:Taq_net.Dumbbell.t ->
  config:Tcp_config.t ->
  ?flow:int ->
  ?pool:int ->
  rtt_prop:float ->
  total_segments:int ->
  ?close_on_drain:bool ->
  ?on_complete:(float -> unit) ->
  ?on_fail:(float -> unit) ->
  unit ->
  t
(** Registers the flow with the network. When [flow] is omitted an id
    is drawn from the network's own allocator
    ({!Taq_net.Dumbbell.next_flow_id}) — ids are per-network, so
    independent simulations can run concurrently in separate domains
    without sharing any state. [on_complete] receives the
    completion time, and [on_fail] the time the connection gave up;
    either way the flow is removed from the network first, so stray
    packets evaporate. [close_on_drain = false] keeps the connection open for
    {!Tcp_sender.append_data} (persistent HTTP-style connections). *)

val start : t -> unit

val sender : t -> Tcp_sender.t

val receiver : t -> Tcp_receiver.t

val flow_id : t -> int

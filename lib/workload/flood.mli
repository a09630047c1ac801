(** Adversarial small-packet flood generators.

    The state-exhaustion workloads the overload guard exists for:
    storms of 40-byte packets, each belonging to a {e brand-new} flow,
    so every arrival costs the middlebox a flow-table insertion while
    contributing almost no bytes. Three shapes:

    - {!Syn_churn}: half-open connection churn — one SYN per fresh
      flow, never followed up (the classic SYN flood, which also
      exercises the admission controller's waiting table);
    - {!One_packet}: a stampede of one-data-packet flows, the
      degenerate small-transfer regime where per-flow state is pure
      overhead;
    - {!Pool_churn}: SYN churn where every flow also claims a fresh
      {e pool} id, stressing the admission waiting table and Twait
      FIFO, which [Admission.expire] prunes oldest first.

    Determinism: arrivals are a Poisson process driven by the caller's
    {!Taq_util.Prng.t}; flood flows draw ids from their own
    [flow_base]-offset space (default 1_000_000) so the network's
    ordinary [next_flow_id] sequence — and therefore every non-flood
    packet trace — is byte-identical with and without the flood
    installed. Flood flows are registered for the minimal time needed
    to cross the bottleneck and then unregistered (with a scheduled
    fallback for dropped packets), so the topology's endpoint map
    stays bounded too. *)

type kind = Syn_churn | One_packet | Pool_churn

val kind_of_string : string -> kind option

type t

val install :
  ?flow_base:int ->
  ?on_send:(unit -> unit) ->
  net:Taq_net.Dumbbell.t ->
  prng:Taq_util.Prng.t ->
  kind:kind ->
  rate:float ->
  at:float ->
  duration:float ->
  unit ->
  t
(** Schedule a flood of mean [rate] packets/second over
    [[at, at + duration)] on [net]'s forward path. [on_send] fires
    once per injected packet (the fault injector's accounting hook).
    @raise Invalid_argument on [rate <= 0] or [duration < 0]. *)

val sent : t -> int
(** Test hook: packets injected so far. *)

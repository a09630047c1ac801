(** Measured state occupancy: how many packets each flow sends per
    epoch, binned into the Markov model's sent-classes — the
    simulation side of Figure 6's model validation.

    Epochs are sampled per flow on a fixed period (the flow's
    propagation RTT in the validation experiments, matching the
    model's epoch definition). *)

type t

val create :
  sim:Taq_engine.Sim.t -> epoch:float -> wmax:int -> unit -> t
(** Counts above [wmax] are clamped into the top class, mirroring the
    model's finite window. *)

val attach : t -> Taq_tcp.Tcp_sender.t -> unit
(** Observe a sender: every data transmission is counted, and an
    epoch sampler is scheduled from the moment of attachment. Sampling
    stops when the flow completes or fails. *)

val observations : t -> int
(** Total epochs sampled across all flows. *)

val distribution : t -> float array
(** Normalized histogram over sent-classes [0..wmax]; all-zero before
    any observation. *)

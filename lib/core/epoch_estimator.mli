(** Middlebox-side epoch (RTT) estimation, per Section 3.3.

    With only one-way traffic visible, TAQ sets the initial epoch from
    the SYN→first-data gap and then revises it with a weighted moving
    average of inter-burst intervals: TCP flows in normal states send
    short bursts at epoch starts, so the gap between burst starts
    approximates the RTT. *)

type t

val create : Taq_config.epoch_source -> t

val note_syn : t -> time:float -> unit

val note_packet : t -> time:float -> unit
(** Any data packet of the flow reaching the middlebox. The first data
    packet after a SYN fixes the initial estimate; later packets feed
    burst detection. *)

val epoch : t -> float
(** Current estimate (the oracle value, the configured default before
    any evidence, or the running estimate). Always within the
    configured [min_epoch .. max_epoch] bounds. *)

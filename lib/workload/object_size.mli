(** Web object sizes.

    A lognormal body with a Pareto tail — the standard empirical shape
    of web object sizes — calibrated so that the bulk of objects fall
    in the 1 KB–100 KB range where Figure 1 shows the highest
    download-time variation, with a heavy tail out to ~100 MB like the
    paper's proxy trace. *)

type params = {
  body_mu : float;  (** lognormal location (of bytes) *)
  body_sigma : float;  (** lognormal scale *)
  tail_weight : float;  (** probability a sample comes from the tail *)
  tail_shape : float;  (** Pareto index *)
  tail_scale : float;  (** Pareto minimum, bytes *)
  min_bytes : int;
  max_bytes : int;
}

val default : params
(** Median ≈ 8 KB, ~5% Pareto tail from 100 KB, clamped to
    [100 B, 100 MB]. *)

val sample : ?params:params -> Taq_util.Prng.t -> int
(** One object size in bytes. *)

(** Figure 1: download times versus object size under pathological
    sharing — the motivating measurement, reproduced by replaying a
    synthetic proxy trace through the simulated access link.

    Clients replay the trace through web-session pools over a shared
    droptail bottleneck; completed downloads are bucketed by object
    size (logarithmic buckets, as in the figure) and each bucket
    reports min / p10 / average / p90 / max download time. The claim
    reproduced is the {e spread}: download times within a bucket vary
    by orders of magnitude, across all object sizes. *)

type params = {
  capacity_bps : float;
  trace : Taq_workload.Trace.params;
  duration : float;  (** replay window (trace is clipped) *)
}

val default : params
(** The paper's setting scaled to simulation: 2 Mbps access link,
    trace calibrated to the university proxy's observation window.
    Every run has a 300 ms RTT, one RTT of buffering, up to 4
    connections per client and seed 41; the trace is generated with
    seed 101. *)

val quick : params
(** A 10-minute, 40-client replay. *)

type bucket_row = {
  bucket_lo : float;  (** bytes *)
  bucket_hi : float;
  n : int;
  min : float;
  p10 : float;
  avg : float;
  p90 : float;
  max : float;
}

type result = {
  rows : bucket_row list;
  completed : int;
  unfinished : int;
  spread_orders : float;
      (** log10(max/min download time) across all completions — the
          "two orders of magnitude" headline *)
}

val run : params -> result
(** Generates the synthetic trace and replays it under droptail — the
    figure's setting. *)

val run_trace :
  params -> queue:Common.queue -> trace:Taq_workload.Trace.t -> result
(** Replay an arbitrary trace (e.g. one loaded from CSV) under any
    queue. [params.trace] is ignored. *)

val print : result -> unit

(** Ring-buffered simulation traces in Chrome [trace_event] format.

    Instrumented modules record {e spans} (an interval of simulation
    time, e.g. one packet's transmission on the bottleneck link) and
    {e instants} (a point event: a drop, a fault firing, a TAQ class
    move) into a fixed-capacity ring. Exported files open directly in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    timestamps are simulation time in microseconds, and each category
    renders as its own track. *)

type phase = Span | Instant

type event = {
  name : string;
  cat : string;  (** track: "link", "drop", "taq", "fault", "phase" *)
  ph : phase;
  ts_us : float;  (** simulation time, microseconds *)
  dur_us : float;  (** span duration; 0 for instants *)
  flow : int;  (** flow id, or -1 when not flow-related *)
}

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** A ring holding at most [capacity] (default
    {!default_capacity}) events; once full, each new event overwrites
    the oldest — a long run keeps its most recent window. *)

val add : t -> event -> unit

val count : t -> int
(** Test hook: events currently held (≤ capacity). *)

val dropped : t -> int
(** Events overwritten since creation. *)

val events : t -> event list
(** Held events, oldest first. *)

(** {1 Chrome trace_event JSON} *)

val to_json : event list -> Json.t
(** Test hook: the JSON {!write_file} writes. [{"traceEvents": [...],
    "displayTimeUnit": "ms"}] — the JSON object format, so the file stays
    valid even if a consumer expects metadata. *)

val of_json : Json.t -> (event list, string) result
(** Test hook: the reference parser for round trips. Inverse of {!to_json}
    (round-trip tested). *)

val write_file : path:string -> event list -> unit
(** Sort by timestamp and write as a Chrome trace file. *)

(** Per-segment transmission state for a TCP sender.

    Tracks every segment between the lowest unacknowledged sequence and
    the highest sequence transmitted. The pipe (number of segments
    believed in flight) is maintained incrementally; loss marking and
    SACK marking move segments out of the pipe. This one structure
    serves Reno, NewReno and SACK senders — the variants differ only in
    who calls {!mark_lost}. A tracked segment is [In_flight] (with its
    last send time and whether it was ever retransmitted), [Sacked] or
    [Lost]. *)

type t

val create : unit -> t

val on_transmit : t -> seq:int -> at:float -> retx:bool -> unit
(** Record a (re)transmission. A retransmission of a [Lost] segment
    moves it back to [In_flight] with [ever_retx = true]. *)

val pipe : t -> int
(** Segments currently [In_flight]. *)

val tracked : t -> int
(** Total tracked segments (in flight + sacked + lost). *)

val ack_range : t -> from_:int -> until:int -> unit
(** Cumulative ack advancing snd_una from [from_] to [until]: forget
    the segments in [[from_, until)]. O(until - from_) — callers pass
    the previous snd_una, so a whole transfer costs O(segments) total
    rather than O(acks x window). *)

val mark_sacked : t -> int -> unit
(** SACK arrival. No-op on untracked or already-sacked segments. *)

val mark_lost : t -> int -> unit
(** Loss inference. No-op on untracked or sacked segments. *)

val mark_all_lost : t -> unit
(** Retransmission timeout: every in-flight segment is presumed lost.
    Sacked segments keep their status (they are known received). *)

val next_lost_seq : t -> int
(** Lowest segment marked [Lost] — the retransmission candidate — or
    [-1] when there is none. *)

val lost_count : t -> int

val sacked_count : t -> int

val sacked_above : t -> int -> int
(** Number of sacked segments with seq strictly greater than the
    argument (drives the SACK loss-inference rule). *)

val sent_time : t -> int -> float
(** Last transmission time of an in-flight segment, [nan] when the
    segment is not in flight. *)

val sent_ever_retx : t -> int -> bool
(** Whether an in-flight segment has ever been retransmitted; [false]
    when the segment is not in flight. *)

val iter_in_flight : t -> (int -> unit) -> unit

(** Flow-evolution classification (Figure 9): in each window, every
    live flow falls into one of four classes based on its activity in
    the previous and current windows.

    - {e Maintained}: progressed in both windows (normal/slow-start
      across continuous epochs)
    - {e Dropped}: active before, silent now (just hit a timeout)
    - {e Arriving}: silent before, active now (recovered)
    - {e Stalled}: silent in both (repetitive timeout) *)

type class_ = Maintained | Dropped | Arriving | Stalled

val classify : active_prev:bool -> active_cur:bool -> class_
(** Test hook: the four-case transition table; {!series} shows it only summed
    over flows. *)

type t

val create : window:float -> t

val note_start : t -> flow:int -> time:float -> unit
(** The flow began (SYN sent / first transmission attempt). *)

val note_activity : t -> flow:int -> time:float -> unit
(** The flow made progress (delivered a data packet). Any int is a flow
    id; each flow keeps one bit per window up to its latest.
    @raise Invalid_argument if [time] is negative. *)

val note_finish : t -> flow:int -> time:float -> unit
(** The flow completed (it stops being classified afterwards). *)

type series = {
  window : float;
  times : float array;  (** window start times *)
  maintained : int array;
  dropped : int array;
  arriving : int array;
  stalled : int array;
  live : int array;  (** flows alive in each window *)
}

val series : t -> until:float -> series
(** Counts per window from the first window to the one containing
    [until]. A flow is classified in windows [w >= 1] that intersect
    its [start, finish) lifetime. *)

val stalled_fraction : series -> float
(** Mean of stalled/live over windows with live flows — the headline
    "TAQ nearly eliminates stalled flows" number. *)

val maintained_fraction : series -> float

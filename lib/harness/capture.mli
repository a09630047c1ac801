(** Per-task output capture.

    Worker domains wrap each task body in {!text} so that
    everything the task prints through the {!Taq_util.Out} sink — every
    experiment table and summary line — lands in a private buffer
    instead of interleaving on stdout. Because the sink is domain-local
    state, captures on different domains never observe each other, and
    the captured text of a task is byte-identical to what a sequential
    run would print. *)

val text : (unit -> unit) -> string
(** The output of running the thunk with this domain's output
    redirected into a fresh buffer. *)

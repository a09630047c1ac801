(** The experiment registry: every paper figure (and the ablations) as
    a named, runnable target. [taq_sim experiment] runs them, and
    [test/test_counters.ml] pins their counters. *)

type target = {
  name : string;  (** e.g. "fig2" *)
  description : string;
  run : full:bool -> unit;
      (** runs and prints the figure's series through the
          {!Taq_util.Out} sink (stdout unless captured); [full]
          selects full-fidelity parameters over the quick ones *)
}

val find : string -> target option

val names : string list

val capture : target -> full:bool -> string
(** Run a target and return what it printed, captured instead of
    printed. Output capture is per-domain, so runs of the same target
    are byte-identical whether executed sequentially or on a worker
    domain, and targets running in parallel never interleave their
    text. *)

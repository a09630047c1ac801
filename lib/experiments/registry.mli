(** The experiment registry: every paper figure (and the ablations) as
    a named, runnable target. Shared by the benchmark harness and the
    [taq_sim] CLI. *)

type target = {
  name : string;  (** e.g. "fig2" *)
  description : string;
  run : full:bool -> unit;
      (** runs and prints the figure's series through the
          {!Taq_util.Out} sink (stdout unless captured); [full]
          selects full-fidelity parameters over the quick ones *)
}

type outcome = {
  target : string;  (** the target's [name] *)
  full : bool;
  output : string;
      (** the exact text a direct [run] would have printed — captured
          per-domain, so targets running in parallel worker domains
          produce clean, non-interleaved outputs *)
}

val find : string -> target option

val names : string list

val capture : target -> full:bool -> outcome
(** Run a target with its output captured instead of printed. This is
    the entry point the parallel harness uses: captured runs of the
    same target are byte-identical whether executed sequentially or on
    a worker domain. *)

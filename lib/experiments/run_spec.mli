(** The run spec: a run's process-wide configuration, in one record.

    [--check], [--obs], [--faults] and [--resil] are parsed once into a
    {!t} ({!of_flags}) and installed once ({!install}), on the main
    domain before any worker domain spawns. {!Common.make_env} resolves
    every environment's checker, observability instance, fault plan and
    resilience monitor from {!current}; the layers below it take those
    instances as arguments and read no policy of their own. *)

type t = {
  check : Taq_check.Check.group list option;
      (** [--check]: the groups checked, in [Raise] mode *)
  obs : Taq_obs.Obs.policy option;  (** [--obs] *)
  faults : Taq_fault.Plan.t option;  (** [--faults] *)
  resil : bool;  (** [--resil] *)
}

val off : t
(** Nothing checked, observed, injected or monitored. *)

val of_flags :
  ?check:string ->
  ?obs:string ->
  ?faults:string ->
  ?resil:bool ->
  unit ->
  (t, string) result
(** Parse the flag values, an absent flag meaning off, with
    {!Taq_check.Check.groups_of_string}, {!Taq_obs.Obs.policy_of_spec}
    and {!Taq_fault.Scenarios.plan_of_string}. The first error, in
    that order, is the result. *)

val install : t -> unit
(** Make [t] the process's run spec. Write-once: a second call raises
    [Invalid_argument]. *)

val current : unit -> t
(** The installed spec, or {!off} when none is installed. *)

val checker : t -> Taq_check.Check.t
(** A fresh checker for one environment, or [Taq_check.Check.off]. *)

val observer : t -> Taq_obs.Obs.t
(** A fresh observability instance registered with the current
    collector ([Taq_obs.Obs.of_policy]), or [Taq_obs.Obs.off]. *)

val check_enabled : t -> bool

val obs_enabled : t -> bool
(** Counters or a trace were requested. *)

val trace_path : t -> string option
(** Where the Chrome trace goes, when one was requested. *)

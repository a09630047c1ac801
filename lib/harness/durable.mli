(** The durable task runner: serve what the result cache holds, run the
    rest on {!Pool}, and store each success as it finishes.

    This module is the one owner of a durable task's on-disk layout and
    of the rule for trusting it:

    - A task's payload lives at [Cache.key ~parts:[key]]; its obs
      snapshot, stored only when counters are on, at
      [Cache.key ~parts:[key; "obs"]]. On success the runner stores
      the payload, then the snapshot.
    - A task whose payload is in the cache is served instead of run.
      With counters on it is served only if its snapshot parses too,
      and is recomputed otherwise, so a served task always carries the
      counters it was computed with.

    So rerunning a killed or cancelled run serves every task stored
    before it stopped and runs the rest. {!Cache} entries are renamed
    into place and verified on every read, so a kill mid-store leaves
    no entry rather than a torn one.

    Outcomes come back in input order, so reports and counter totals
    merged from them are byte-identical at any [jobs] count and after
    any kill and rerun. *)

type served = {
  payload : string;
  obs : Taq_obs.Obs.snapshot;
      (** the stored snapshot; empty when counters are off *)
}

type outcome =
  | Hit of served  (** served from the cache *)
  | Ran of string Pool.result
      (** executed by the pool (or cancelled: see {!Pool}) *)

val run :
  ?counters:bool ->
  ?jobs:int ->
  ?on_done:(completed:int -> total:int -> string Pool.result -> unit) ->
  ?cache:Cache.t ->
  string Task.t list ->
  outcome list
(** Serve, run and store [tasks]; one outcome per task, in input order.
    Without [cache] every task runs and nothing is stored. [counters]
    (default false) says whether snapshots are stored and required.
    [jobs] and [on_done] go to {!Pool.run}; [on_done] sees each result
    after it has been stored. Tasks sharing a key each run (or are each
    served). *)

val obs : outcome -> Taq_obs.Obs.snapshot
(** The task's counters: stored, or collected by the pool. *)

(** The durable task runner: serve what a result store holds, run the
    rest on {!Pool}, and persist each success as it finishes.

    A store is a {!Cache} plus a write-ahead {!Journal} file in the
    cache's directory. This module is the one owner of a durable task's
    on-disk layout and of the rule for trusting it:

    - A task's payload lives at [Cache.key ~parts:[key]]; its obs
      snapshot, stored only when counters are on, at
      [Cache.key ~parts:[key; "obs"]].
    - Before a task's first attempt the runner journals [Start key].
      On success it stores the payload, then the snapshot, and only
      then journals [Finish {key; digest}], [digest] being the MD5 hex
      of the payload — so the journal never testifies to an entry that
      is not on disk.
    - A task whose payload is on disk is served instead of run. With
      counters on it is served only if its snapshot parses too, and is
      recomputed otherwise, so a served task always carries the
      counters it was computed with. It is {!Restored} when resuming
      and the journal's digest matches the payload, and a {!Hit}
      otherwise.

    Outcomes come back in input order, so reports and counter totals
    merged from them are byte-identical at any [jobs] count and after
    any kill-and-resume. *)

type store = {
  cache : Cache.t;
  journal : string;  (** journal file name, in the cache's directory *)
  resume : bool;
      (** replay the journal and append to it; otherwise it starts
          afresh *)
}

type served = {
  payload : string;
  obs : Taq_obs.Obs.snapshot;
      (** the stored snapshot; empty when counters are off *)
}

type outcome =
  | Restored of served  (** served; the journal testifies to it *)
  | Hit of served  (** served from the cache alone *)
  | Ran of string Pool.result
      (** executed by the pool (or cancelled, or lost: see {!Pool}) *)

val run :
  ?obs:Taq_obs.Obs.t ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?on_done:(completed:int -> total:int -> string Pool.result -> unit) ->
  ?store:store ->
  string Task.t list ->
  outcome list
(** Serve, run and persist [tasks]; one outcome per task, in input
    order. Without [store] every task runs and nothing is persisted.
    [obs] (default [Taq_obs.Obs.off]) receives the journal's and the
    pool's counters, and counters are on exactly when it is enabled.
    [jobs], [timeout_s], [retries] and [on_done] go to {!Pool.run};
    [on_done] sees each result after it has been persisted. Tasks
    sharing a key each run (or are each served). *)

val obs : outcome -> Taq_obs.Obs.snapshot
(** The task's counters: stored, or collected by the pool. *)

module Check = Taq_check.Check
module Obs = Taq_obs.Obs

type t = {
  check : Check.group list option;
  obs : Obs.policy option;
  faults : Taq_fault.Plan.t option;
  resil : bool;
}

let off = { check = None; obs = None; faults = None; resil = false }

let of_flags ?check ?obs ?faults ?(resil = false) () =
  let parse parser = function
    | None -> Ok None
    | Some s -> Result.map Option.some (parser s)
  in
  let ( let* ) = Result.bind in
  let* check = parse Check.groups_of_string check in
  let* obs = parse Obs.policy_of_spec obs in
  let* faults = parse Taq_fault.Scenarios.plan_of_string faults in
  Ok { check; obs; faults; resil }

(* Atomic (not Domain.DLS) so the spec installed on the main domain
   before Harness.Pool spawns workers is visible inside those workers. *)
let installed : t option Atomic.t = Atomic.make None

let install t =
  if not (Atomic.compare_and_set installed None (Some t)) then
    invalid_arg "Run_spec.install: a run spec is already installed"

let current () = Option.value (Atomic.get installed) ~default:off

let checker t =
  match t.check with
  | None -> Check.off
  | Some groups -> Check.create ~mode:Check.Raise ~groups ()

let observer t = match t.obs with None -> Obs.off | Some p -> Obs.of_policy p

let check_enabled t = t.check <> None

let obs_enabled t =
  match t.obs with
  | Some p -> p.Obs.policy_counters || p.Obs.policy_trace <> None
  | None -> false

let trace_path t = Option.bind t.obs (fun p -> p.Obs.policy_trace)

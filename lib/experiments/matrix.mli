(** The sweep matrix: every queue discipline crossed with every TCP
    stack and workload, one golden-scalar cell per combination.

    A cell is a quick-scale deterministic simulation named by strings
    ([disc], [tcp], [workload]) so the CLI, the cache keys, the golden
    files and CI all speak the same vocabulary. Cells print exactly one
    [cell ...] report line of key=value pairs through {!Taq_util.Out},
    which the sweep driver parses back into the merged per-cell
    Jain/drop-rate table.

    Workloads:
    - ["longmix"]: 12 long-lived flows sharing the bottleneck; [jain]
      is the long-term Jain index over all of them.
    - ["mice"]: 4 elephants plus a staggered cohort of 24 eight-segment
      mice; [jain] is the Jain index over the {e mice completion
      rates} (1/FCT, a stalled mouse scored at the horizon) — the
      mice-vs-elephants predictability index the paper motivates.
      [completed] counts mice that finished inside the horizon.

    Everything is seeded: the cell's PRNG seed comes from the sweep
    task key, so reports are byte-identical at any [--jobs]. *)

val default_discs : string list
(** The full zoo, in {!Common.disc_names} order: droptail, red, sfq,
    drr, choke, choked, codel, las, taq. (taq+ac is accepted by
    {!run_cell} but not part of the default matrix.) *)

val workload_names : string list
(** Test hook: the vocabulary the task-key property draws cells from:
    ["longmix"; "mice"]. *)

val tcp_names : string list
(** Test hook: the vocabulary the task-key property draws cells from:
    {!Taq_tcp.Tcp_config.profile_names}. {!Taq_tcp.Tcp_config.profile_names}:
    newreno, sack, cubic. *)

val fault_names : string list
(** Test hook: the vocabulary the task-key property draws cells from. The
    fault axis vocabulary: none, flap, flood, brownout, jitter — each a named,
    fixed quick-scale fault plan (onset t=8, cleared with most of the horizon
    left so recovery is measurable). *)

val default_fault_axis : string list
(** [["none"; "flap"; "flood"]] — the axis [sweep --matrix] runs by
    default; the golden matrix crosses every cell with these. *)

val validate :
  ?fault:string ->
  disc:string ->
  tcp:string ->
  workload:string ->
  unit ->
  (unit, string) result
(** Check the cell coordinates before building task keys. *)

val run_cell :
  disc:string ->
  tcp:string ->
  workload:string ->
  ?fault:string ->
  ?guard_cap:int ->
  seed:int ->
  unit ->
  unit
(** Run one cell under fault-axis scenario [fault] (default ["none"])
    and print its [cell ...] report line plus one [resil ...] line per
    monitored metric via {!Taq_util.Out}. The cell owns its fault plan
    and always runs the resilience monitor, so the run spec's
    [--faults]/[--resil] never leak in; its check/obs policies apply
    exactly as in every other experiment. Flood cells configure
    TAQ's overload guard ({!Fault_drill.flood_guard_cap}) unless
    [guard_cap] is given. @raise Failure on unknown coordinates. *)

val cells_of_output : string -> (string * string) list list
(** Parse the [cell ...] lines out of captured cell/report text: one
    assoc list of key=value fields per cell, in output order. *)

val resil_of_output : string -> (string * string) list list
(** Same, for the per-metric [resil ...] lines. *)

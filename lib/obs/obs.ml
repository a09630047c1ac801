(* Perf observability: deterministic counters + optional tracing.
   Instances are per-environment (never shared across domains), built
   from a run's [--obs] policy by [of_policy], and everything is a
   single-branch no-op when disabled. *)

(* --- instances ----------------------------------------------------------- *)

type t = {
  enabled : bool;  (* counters on: the single-branch hot-path guard *)
  labeled : (string, int ref) Hashtbl.t;
  labeled_gauges : (string, int ref) Hashtbl.t;
  trace : Trace.t option;
}

let make_instance ~enabled ~trace =
  {
    enabled;
    labeled = Hashtbl.create 16;
    labeled_gauges = Hashtbl.create 4;
    trace;
  }

let off = make_instance ~enabled:false ~trace:None

let create ?(tracing = false) () =
  let trace = if tracing then Some (Trace.create ()) else None in
  make_instance ~enabled:true ~trace

let[@inline] enabled t = t.enabled

let[@inline] tracing t = t.trace <> None

(* The named cell in [table], created at 0 on first use. *)
let cell table name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace table name r;
      r

let labeled_ref t name = if t.enabled then cell t.labeled name else ref 0

let labeled_gauge_ref t name =
  if t.enabled then cell t.labeled_gauges name else ref 0

let labeled t name n =
  if t.enabled then begin
    let r = labeled_ref t name in
    r := !r + n
  end

let labeled_gauge_max t name v =
  if t.enabled then
    match Hashtbl.find_opt t.labeled_gauges name with
    | Some r -> if v > !r then r := v
    | None -> Hashtbl.replace t.labeled_gauges name (ref v)

let span t ~name ~cat ?(flow = -1) ~ts_s ~dur_s () =
  match t.trace with
  | None -> ()
  | Some tr ->
      Trace.add tr
        {
          Trace.name;
          cat;
          ph = Trace.Span;
          ts_us = ts_s *. 1e6;
          dur_us = dur_s *. 1e6;
          flow;
        }

let instant t ~name ~cat ?(flow = -1) ~ts_s () =
  match t.trace with
  | None -> ()
  | Some tr ->
      Trace.add tr
        {
          Trace.name;
          cat;
          ph = Trace.Instant;
          ts_us = ts_s *. 1e6;
          dur_us = 0.0;
          flow;
        }

(* --- snapshots ----------------------------------------------------------- *)

type snapshot = {
  counters : (string * int) list;  (* sorted by name, zero entries dropped *)
  gauges : (string * int) list;  (* sorted by name, merged with max *)
  events : Trace.event list;
  trace_dropped : int;
}

let empty_snapshot =
  {
    counters = [];
    gauges = [];
    events = [];
    trace_dropped = 0;
  }

let by_name (a, _) (b, _) = String.compare a b

let snapshot (t : t) =
  let nonzero table =
    Hashtbl.fold
      (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc)
      table []
    |> List.sort by_name
  in
  {
    counters = nonzero t.labeled;
    gauges = nonzero t.labeled_gauges;
    events = (match t.trace with None -> [] | Some tr -> Trace.events tr);
    trace_dropped = (match t.trace with None -> 0 | Some tr -> Trace.dropped tr);
  }

(* Merge two sorted assoc lists, combining duplicates with [combine]. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], xs | xs, [] -> xs
  | (ka, va) :: ra, (kb, vb) :: rb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge_assoc combine ra b
      else if c > 0 then (kb, vb) :: merge_assoc combine a rb
      else (ka, combine va vb) :: merge_assoc combine ra rb

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    gauges = merge_assoc Stdlib.max a.gauges b.gauges;
    events = a.events @ b.events;
    trace_dropped = a.trace_dropped + b.trace_dropped;
  }

let merge_all snaps = List.fold_left merge empty_snapshot snaps

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let gauge_value snap name =
  match List.assoc_opt name snap.gauges with Some v -> v | None -> 0

let assoc_to_json kvs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs)

(* Wire form for durable runs: counters + gauges only. Trace events
   have their own file format, so the part worth persisting is exactly
   the part whose merge is deterministic. *)
let snapshot_to_string snap =
  Json.to_string
    (Json.Obj
       [
         ("counters", assoc_to_json snap.counters);
         ("gauges", assoc_to_json snap.gauges);
       ])

let snapshot_of_string s =
  let ( let* ) r f = Result.bind r f in
  let assoc_of field json =
    match Json.member field json with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
              (* Stricter than [Json.to_int] (which truncates): counter
                 values are integers, a fractional one is corruption. *)
              match v with
              | Json.Num f when Float.is_integer f ->
                  conv ((k, int_of_float f) :: acc) rest
              | _ ->
                  Error
                    (Printf.sprintf "snapshot: field %S of %S is not an int" k
                       field))
        in
        conv [] kvs
    | Some _ -> Error (Printf.sprintf "snapshot: %S is not an object" field)
  in
  let* json = Json.of_string s in
  let* counters = assoc_of "counters" json in
  let* gauges = assoc_of "gauges" json in
  Ok
    {
      empty_snapshot with
      counters = List.sort by_name counters;
      gauges = List.sort by_name gauges;
    }

let report snap =
  let b = Buffer.create 512 in
  Buffer.add_string b "observability counters:\n";
  let table = Taq_util.Table.create ~columns:[ "counter"; "value" ] in
  List.iter
    (fun (name, v) -> Taq_util.Table.add_row table [ name; string_of_int v ])
    snap.counters;
  List.iter
    (fun (name, v) ->
      Taq_util.Table.add_row table [ name ^ " (max)"; string_of_int v ])
    snap.gauges;
  Buffer.add_string b (Taq_util.Table.to_string table);
  if snap.events <> [] || snap.trace_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "  trace: %d event(s) held, %d overwritten\n"
         (List.length snap.events) snap.trace_dropped);
  Buffer.contents b

(* --- policy ------------------------------------------------------------- *)

type policy = { policy_counters : bool; policy_trace : string option }

let default_trace_path = "taq.trace.json"

let policy_of_spec spec =
  let base = { policy_counters = false; policy_trace = None } in
  let parts =
    String.split_on_char ',' (String.trim spec)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Ok { base with policy_counters = true }
  else
    let rec go acc = function
      | [] -> Ok acc
      | "off" :: rest -> go { acc with policy_counters = false } rest
      | "counters" :: rest -> go { acc with policy_counters = true } rest
      | "trace" :: rest ->
          go
            { policy_counters = true; policy_trace = Some default_trace_path }
            rest
      | p :: rest when String.length p > 6 && String.sub p 0 6 = "trace:" ->
          let path = String.sub p 6 (String.length p - 6) in
          go { policy_counters = true; policy_trace = Some path } rest
      | p :: _ ->
          Error
            (Printf.sprintf
               "unknown obs spec %S (expected counters, trace[:PATH] or off)"
               p)
    in
    go base parts

(* --- collectors ----------------------------------------------------------

   Instances built by [of_policy] register with the current collector
   so their counters can be found again at snapshot time. The harness
   installs a domain-local collector around each task (see
   Harness.Pool), which is what makes per-task aggregation exact under
   any jobs count: integer counters are summed task-by-task in input
   order, so jobs=4 and jobs=1 fold to identical totals. Instances
   created outside any task (the main domain's environments, the
   result cache) land in the process-global root collector. *)

type collector = { mutable instances : t list }

let root = { instances = [] }

let root_mutex = Mutex.create ()

let current_key : collector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let register t =
  match Domain.DLS.get current_key with
  | Some c -> c.instances <- t :: c.instances
  | None ->
      Mutex.lock root_mutex;
      root.instances <- t :: root.instances;
      Mutex.unlock root_mutex

let of_policy p =
  if (not p.policy_counters) && p.policy_trace = None then off
  else begin
    let t =
      make_instance ~enabled:p.policy_counters
        ~trace:
          (match p.policy_trace with
          | None -> None
          | Some _ -> Some (Trace.create ()))
    in
    register t;
    t
  end

let snapshot_of_instances instances =
  merge_all (List.rev_map snapshot instances)

let collecting f =
  let c = { instances = [] } in
  let old = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some c);
  let v =
    Fun.protect ~finally:(fun () -> Domain.DLS.set current_key old) f
  in
  (v, snapshot_of_instances c.instances)

let root_snapshot () =
  Mutex.lock root_mutex;
  let instances = root.instances in
  Mutex.unlock root_mutex;
  snapshot_of_instances instances

let reset_root () =
  Mutex.lock root_mutex;
  root.instances <- [];
  Mutex.unlock root_mutex

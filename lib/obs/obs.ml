(* Perf observability: deterministic counters + optional tracing.
   Instances are per-environment (never shared across domains), built
   from a run's [--obs] policy by [of_policy], and everything is a
   single-branch no-op when disabled. *)

(* --- fixed counters ------------------------------------------------------ *)

type counter =
  | Events_scheduled
  | Events_executed
  | Events_skipped
  | Heap_push
  | Heap_pop
  | Link_offered
  | Link_transmitted
  | Link_dropped
  | Link_bytes_tx

let n_counters = 9

let counter_index = function
  | Events_scheduled -> 0
  | Events_executed -> 1
  | Events_skipped -> 2
  | Heap_push -> 3
  | Heap_pop -> 4
  | Link_offered -> 5
  | Link_transmitted -> 6
  | Link_dropped -> 7
  | Link_bytes_tx -> 8

let counter_name = function
  | Events_scheduled -> "sim.events_scheduled"
  | Events_executed -> "sim.events_executed"
  | Events_skipped -> "sim.events_skipped"
  | Heap_push -> "sim.heap_push"
  | Heap_pop -> "sim.heap_pop"
  | Link_offered -> "link.offered"
  | Link_transmitted -> "link.transmitted"
  | Link_dropped -> "link.dropped"
  | Link_bytes_tx -> "link.bytes_transmitted"

let all_counters =
  [
    Events_scheduled; Events_executed; Events_skipped; Heap_push; Heap_pop;
    Link_offered; Link_transmitted; Link_dropped; Link_bytes_tx;
  ]

type gauge = Heap_max_depth

let n_gauges = 1

let gauge_index = function Heap_max_depth -> 0

let gauge_name = function Heap_max_depth -> "sim.heap_max_depth"

let all_gauges = [ Heap_max_depth ]

(* --- instances ----------------------------------------------------------- *)

type t = {
  enabled : bool;  (* counters on: the single-branch hot-path guard *)
  counters : int array;
  gauges : int array;
  labeled : (string, int ref) Hashtbl.t;
  labeled_gauges : (string, int ref) Hashtbl.t;
  trace : Trace.t option;
}

let make_instance ~enabled ~trace =
  {
    enabled;
    counters = Array.make n_counters 0;
    gauges = Array.make n_gauges 0;
    labeled = Hashtbl.create 16;
    labeled_gauges = Hashtbl.create 4;
    trace;
  }

let off = make_instance ~enabled:false ~trace:None

let create ?trace_capacity ?(tracing = false) () =
  let trace =
    if tracing then Some (Trace.create ?capacity:trace_capacity ())
    else None
  in
  make_instance ~enabled:true ~trace

let[@inline] enabled t = t.enabled

let[@inline] tracing t = t.trace <> None

let[@inline] incr t c =
  if t.enabled then begin
    let i = counter_index c in
    t.counters.(i) <- t.counters.(i) + 1
  end

let[@inline] add t c n =
  if t.enabled then begin
    let i = counter_index c in
    t.counters.(i) <- t.counters.(i) + n
  end

let[@inline] gauge_max t g v =
  if t.enabled then begin
    let i = gauge_index g in
    if v > t.gauges.(i) then t.gauges.(i) <- v
  end

let labeled_ref t name =
  if not t.enabled then ref 0
  else
    match Hashtbl.find_opt t.labeled name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.labeled name r;
        r

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
  gc_minor_words : float;
  gc_major_words : float;
  events : Trace.event list;
  trace_dropped : int;
}

let empty_snapshot =
  {
    counters = [];
    gauges = [];
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
    events = [];
    trace_dropped = 0;
  }

let by_name (a, _) (b, _) = String.compare a b

let snapshot (t : t) =
  let fixed =
    List.filter_map
      (fun c ->
        let v = t.counters.(counter_index c) in
        if v = 0 then None else Some (counter_name c, v))
      all_counters
  in
  let lab =
    Hashtbl.fold
      (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc)
      t.labeled []
  in
  let fixed_gauges =
    List.filter_map
      (fun g ->
        let v = t.gauges.(gauge_index g) in
        if v = 0 then None else Some (gauge_name g, v))
      all_gauges
  in
  let lab_gauges =
    Hashtbl.fold
      (fun name r acc -> if !r = 0 then acc else (name, !r) :: acc)
      t.labeled_gauges []
  in
  {
    counters = List.sort by_name (fixed @ lab);
    gauges = List.sort by_name (fixed_gauges @ lab_gauges);
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
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
    gc_minor_words = a.gc_minor_words +. b.gc_minor_words;
    gc_major_words = a.gc_major_words +. b.gc_major_words;
    events = a.events @ b.events;
    trace_dropped = a.trace_dropped + b.trace_dropped;
  }

let merge_all snaps = List.fold_left merge empty_snapshot snaps

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let gauge_value snap name =
  match List.assoc_opt name snap.gauges with Some v -> v | None -> 0

let counters_to_json snap =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) snap.counters)

let gauges_to_json snap =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) snap.gauges)

(* Wire form for durable runs: counters + gauges only. GC words are
   machine noise (deliberately absent from [report] too) and trace
   events have their own file format, so the part worth persisting is
   exactly the part whose merge is deterministic. *)
let snapshot_to_string snap =
  Json.to_string
    (Json.Obj
       [ ("counters", counters_to_json snap); ("gauges", gauges_to_json snap) ])

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
  (* GC words are deliberately NOT printed: they are noisy, and this
     report must stay byte-identical across --jobs counts. They travel
     in the snapshot for consumers (bench) that want them. *)
  if snap.events <> [] || snap.trace_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "  trace: %d event(s) held, %d overwritten\n"
         (List.length snap.events) snap.trace_dropped);
  Buffer.contents b

(* --- policy ------------------------------------------------------------- *)

type policy = {
  policy_counters : bool;
  policy_trace : string option;
  policy_trace_capacity : int;
}

let default_trace_path = "taq.trace.json"

let policy_of_spec spec =
  let base =
    {
      policy_counters = false;
      policy_trace = None;
      policy_trace_capacity = Trace.default_capacity;
    }
  in
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
            {
              acc with
              policy_counters = true;
              policy_trace = Some default_trace_path;
            }
            rest
      | p :: rest when String.length p > 6 && String.sub p 0 6 = "trace:" ->
          let path = String.sub p 6 (String.length p - 6) in
          go
            { acc with policy_counters = true; policy_trace = Some path }
            rest
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
          | Some _ -> Some (Trace.create ~capacity:p.policy_trace_capacity ()))
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
  let gc0 = Gc.quick_stat () in
  let v =
    Fun.protect ~finally:(fun () -> Domain.DLS.set current_key old) f
  in
  let gc1 = Gc.quick_stat () in
  let snap = snapshot_of_instances c.instances in
  ( v,
    {
      snap with
      gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
    } )

let root_snapshot () =
  Mutex.lock root_mutex;
  let instances = root.instances in
  Mutex.unlock root_mutex;
  snapshot_of_instances instances

let reset_root () =
  Mutex.lock root_mutex;
  root.instances <- [];
  Mutex.unlock root_mutex

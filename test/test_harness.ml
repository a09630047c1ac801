(* Tests for taq_harness: the Domain pool (every task runs exactly
   once, results stay input-ordered at jobs in {1,4}, an exception from
   on_done leaves the run), deterministic
   task-seed derivation, per-task output capture, the on-disk result
   cache, the durable runner (a rerun after a kill, warm reruns, the
   rule for trusting a stored snapshot, failed and unstorable tasks),
   and qcheck properties: parallel and sequential runs of the same task
   list produce identical per-task outputs, and a truncated or
   corrupted cache entry is never served. *)

module Task = Taq_harness.Task
module Pool = Taq_harness.Pool
module Cache = Taq_harness.Cache
module Durable = Taq_harness.Durable
module Obs = Taq_obs.Obs

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Task: seed derivation ------------------------------------------------- *)

let test_seed_deterministic () =
  let s1 = Task.seed_of_key "sweep/droptail/cap=600000" in
  let s2 = Task.seed_of_key "sweep/droptail/cap=600000" in
  Alcotest.(check int) "same key, same seed" s1 s2

let test_seed_distinct_keys () =
  (* Not a guarantee in general, but these keys must not collide or
     every sweep point would share randomness. *)
  let keys =
    [ "a"; "b"; "ab"; "ba"; "sweep/taq/rep=0"; "sweep/taq/rep=1"; "" ]
  in
  let seeds = List.map Task.seed_of_key keys in
  let sorted = List.sort_uniq compare seeds in
  Alcotest.(check int)
    "distinct keys yield distinct seeds" (List.length keys)
    (List.length sorted)

let test_seed_non_negative () =
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "seed of %S non-negative" key)
        true
        (Task.seed_of_key key >= 0))
    [ ""; "x"; "fig2"; String.make 1000 'z' ]

let test_task_receives_derived_seed () =
  let t = Task.make ~key:"probe" (fun ~seed -> seed) in
  Alcotest.(check int)
    "run passes seed_of_key" (Task.seed_of_key "probe") (Task.run t)

(* --- Pool ------------------------------------------------------------------ *)

let counting_tasks n counters =
  List.init n (fun i ->
      Task.make ~key:(Printf.sprintf "task-%d" i) (fun ~seed:_ ->
          (* Atomic: tasks may run on several domains at once. *)
          Atomic.incr counters.(i);
          i * i))

let test_pool_runs_each_task_once jobs () =
  let n = 9 in
  let counters = Array.init n (fun _ -> Atomic.make 0) in
  let results = Pool.run ~jobs (counting_tasks n counters) in
  Alcotest.(check int) "one result per task" n (List.length results);
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "task %d ran exactly once" i)
        1 (Atomic.get c))
    counters;
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        "results input-ordered"
        (Printf.sprintf "task-%d" i)
        r.Pool.key;
      Alcotest.(check int) "value" (i * i) (Pool.value_exn r))
    results

let test_pool_empty () =
  Alcotest.(check int) "no tasks, no results" 0
    (List.length (Pool.run ~jobs:4 []))

let test_pool_failure_isolated () =
  let tasks =
    [
      Task.make ~key:"ok-1" (fun ~seed:_ -> 1);
      Task.make ~key:"boom" (fun ~seed:_ -> failwith "deliberate");
      Task.make ~key:"ok-2" (fun ~seed:_ -> 2);
    ]
  in
  let results = Pool.run ~jobs:4 tasks in
  (match results with
  | [ a; b; c ] ->
      Alcotest.(check int) "ok-1 value" 1 (Pool.value_exn a);
      (match b.Pool.value with
      | Error msg ->
          Alcotest.(check bool)
            "error mentions the exception" true
            (contains ~needle:"deliberate" msg)
      | Ok _ -> Alcotest.fail "failing task reported Ok");
      Alcotest.(check int) "ok-2 value" 2 (Pool.value_exn c)
  | _ -> Alcotest.fail "expected 3 results");
  match results with
  | [ _; b; _ ] -> (
      match Pool.value_exn b with
      | _ -> Alcotest.fail "value_exn on a failed task must raise"
      | exception Failure msg ->
          Alcotest.(check bool)
            "value_exn names the task and error" true
            (contains ~needle:"boom" msg && contains ~needle:"deliberate" msg))
  | _ -> ()

let test_pool_on_done_progress () =
  let n = 6 in
  let seen = Atomic.make 0 in
  let total_seen = ref 0 in
  let _ =
    Pool.run ~jobs:4
      ~on_done:(fun ~completed:_ ~total r ->
        (* on_done runs under the pool lock, so plain refs are fine
           here, but keep the counter atomic for symmetry. *)
        Atomic.incr seen;
        total_seen := total;
        ignore r.Pool.elapsed_s)
      (List.init n (fun i ->
           Task.make ~key:(string_of_int i) (fun ~seed:_ -> i)))
  in
  Alcotest.(check int) "on_done fired once per task" n (Atomic.get seen);
  Alcotest.(check int) "total is task count" n !total_seen

(* --- Output capture (Taq_util.Out.with_buffer) ------------------------------ *)

let test_capture_buffers_output () =
  let out, v =
    Taq_util.Out.with_buffer (fun () ->
        Taq_util.Out.printf "hello %d" 42;
        7)
  in
  Alcotest.(check string) "captured text" "hello 42" out;
  Alcotest.(check int) "value passed through" 7 v

let test_capture_nested_restores () =
  let outer, () =
    Taq_util.Out.with_buffer (fun () ->
        Taq_util.Out.printf "before|";
        let inner, () =
          Taq_util.Out.with_buffer (fun () -> Taq_util.Out.printf "inner")
        in
        Alcotest.(check string) "inner isolated" "inner" inner;
        Taq_util.Out.printf "after")
  in
  Alcotest.(check string) "outer unaffected by nesting" "before|after" outer

let test_capture_table_print_is_captured () =
  let out, () =
    Taq_util.Out.with_buffer (fun () ->
        let t = Taq_util.Table.create ~columns:[ "k"; "v" ] in
        Taq_util.Table.add_row t [ "answer"; "42" ];
        Taq_util.Table.print t)
  in
  Alcotest.(check bool)
    "table rows routed to the capture buffer" true
    (contains ~needle:"answer" out)

(* --- Cache ----------------------------------------------------------------- *)

(* Unique per call without ambient [Random]: pid + a counter keep
   concurrent runs and repeated calls within one run apart. *)
let temp_cache_counter = ref 0

let with_temp_dir f =
  incr temp_cache_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taq-cache-test-%d-%d" (Unix.getpid ())
         !temp_cache_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let with_temp_cache f = with_temp_dir (fun dir -> f (Cache.create ~dir ()))

let payload_of = function
  | Durable.Hit s -> s.Durable.payload
  | Durable.Ran r -> Pool.value_exn r

(* Where each outcome came from, for whole-run assertions. *)
let sources =
  List.map (function
    | Durable.Hit _ -> "hit"
    | Durable.Ran r when Pool.cancelled r -> "cancelled"
    | Durable.Ran _ -> "ran")

let times n source = List.init n (Fun.const source)

let test_cache_miss_then_hit () =
  with_temp_cache (fun cache ->
      let key = "sweep/droptail/cap=600000" in
      let computed = ref 0 in
      let task payload =
        Task.make ~key (fun ~seed:_ ->
            incr computed;
            payload)
      in
      (match Durable.run ~cache [ task "payload" ] with
      | [ Durable.Ran r ] ->
          Alcotest.(check string) "computed payload" "payload"
            (Pool.value_exn r)
      | _ -> Alcotest.fail "first run must be a miss");
      (match Durable.run ~cache [ task "recomputed!" ] with
      | [ Durable.Hit s ] ->
          Alcotest.(check string) "served from disk" "payload" s.Durable.payload
      | _ -> Alcotest.fail "second run must be a hit");
      Alcotest.(check int) "computed exactly once" 1 !computed;
      (* Tasks sharing a key each run on a cold store, and are each
         served once it is warm. *)
      let twice () =
        Durable.run ~cache
          [ Task.make ~key:"dup" (fun ~seed:_ -> "d");
            Task.make ~key:"dup" (fun ~seed:_ -> "d") ]
      in
      Alcotest.(check (list string)) "duplicates run" (times 2 "ran")
        (sources (twice ()));
      Alcotest.(check (list string)) "duplicates served" (times 2 "hit")
        (sources (twice ())))

let test_cache_key_sensitivity () =
  (* Every part matters, and concatenation cannot alias distinct
     part lists. *)
  let k parts = Cache.key ~parts in
  Alcotest.(check bool)
    "different param, different key" true
    (k [ "sweep"; "cap=600000" ] <> k [ "sweep"; "cap=800000" ]);
  Alcotest.(check bool)
    "part boundaries matter" true
    (k [ "ab"; "c" ] <> k [ "a"; "bc" ]);
  Alcotest.(check string)
    "key is stable" (k [ "x"; "y" ]) (k [ "x"; "y" ])

let test_cache_store_roundtrip () =
  with_temp_cache (fun cache ->
      let key = Cache.key ~parts:[ "roundtrip" ] in
      let payload = "line1\nline2\n\x00binary-ish\xff" in
      Cache.store cache ~key payload;
      Alcotest.(check (option string))
        "find returns stored bytes verbatim" (Some payload)
        (Cache.find cache ~key))

(* --- Cache: integrity trailer / self-healing -------------------------------- *)

let entry_path dir ~key = Filename.concat dir (key ^ ".txt")

let clobber path f =
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (f raw))

let test_cache_torn_entry_evicted () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let key = Cache.key ~parts:[ "torn" ] in
      Cache.store cache ~key "precious payload";
      (* Simulate a torn write: drop the tail of the file (part of the
         payload and the whole trailer). *)
      clobber (entry_path dir ~key) (fun raw ->
          String.sub raw 0 (String.length raw / 2));
      Alcotest.(check (option string))
        "torn entry reads as a miss" None (Cache.find cache ~key);
      Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache);
      Alcotest.(check bool)
        "torn file removed from disk" false
        (Sys.file_exists (entry_path dir ~key));
      (* The caller recomputes and re-stores. *)
      Cache.store cache ~key "recomputed";
      Alcotest.(check (option string))
        "healed entry serves again" (Some "recomputed") (Cache.find cache ~key))

let test_cache_bitrot_evicted () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let key = Cache.key ~parts:[ "rot" ] in
      Cache.store cache ~key "payload-v1";
      (* Flip payload bytes but keep the length: only the digest can
         catch this. *)
      clobber (entry_path dir ~key) (fun raw ->
          String.mapi (fun i c -> if i < 7 then 'X' else c) raw);
      Alcotest.(check (option string))
        "digest mismatch reads as a miss" None (Cache.find cache ~key);
      Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache))

let test_cache_legacy_entry_evicted () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let key = Cache.key ~parts:[ "legacy" ] in
      (* A pre-trailer entry written by an older harness: raw payload,
         no trailer line. *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out_bin (entry_path dir ~key) in
      output_string oc "old-format payload";
      close_out oc;
      Alcotest.(check (option string))
        "legacy entry not trusted" None (Cache.find cache ~key);
      Alcotest.(check int) "evicted, will recompute" 1
        (Cache.evictions cache))

let test_cache_trailer_roundtrips_tricky_payloads () =
  with_temp_cache (fun cache ->
      List.iteri
        (fun i payload ->
          let key = Cache.key ~parts:[ "tricky"; string_of_int i ] in
          Cache.store cache ~key payload;
          Alcotest.(check (option string))
            (Printf.sprintf "payload %d verbatim" i)
            (Some payload) (Cache.find cache ~key))
        [
          "";
          "\n";
          "ends with newline\n";
          "TAQCACHEv1 0 d41d8cd98f00b204e9800998ecf8427e\n";
          (* a payload that is itself a valid trailer line *)
          "no trailing newline";
          String.make 4096 '\xab';
        ];
      Alcotest.(check int) "no spurious evictions" 0 (Cache.evictions cache))

(* However a stored entry is damaged, the cache serves its payload or
   nothing: [damage] applied to an entry that read back intact must
   turn it into a miss, and evict the file so a rerun recomputes it. *)
let damaged_entry_is_miss payload damage =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let key = Cache.key ~parts:[ "damaged" ] in
      Cache.store cache ~key payload;
      let intact = Cache.find cache ~key = Some payload in
      clobber (entry_path dir ~key) damage;
      intact
      && Cache.find cache ~key = None
      && Cache.evictions cache = 1
      && not (Sys.file_exists (entry_path dir ~key)))

let arbitrary_payload = QCheck.string_of_size QCheck.Gen.(int_range 0 64)

(* A write cut short leaves a strict prefix of the entry. *)
let prop_cache_truncation_is_miss =
  QCheck.Test.make ~name:"cache: any truncation of an entry is a miss"
    ~count:200
    QCheck.(pair arbitrary_payload (int_bound 1_000_000))
    (fun (payload, cut) ->
      damaged_entry_is_miss payload (fun raw ->
          String.sub raw 0 (cut mod String.length raw)))

(* Bit rot anywhere: in the payload, its length, its digest or the
   trailer's magic. *)
let prop_cache_corruption_is_miss =
  QCheck.Test.make
    ~name:"cache: any single-byte corruption of an entry is a miss" ~count:200
    QCheck.(triple arbitrary_payload (int_bound 1_000_000) (int_range 1 255))
    (fun (payload, pos, delta) ->
      damaged_entry_is_miss payload (fun raw ->
          let pos = pos mod String.length raw in
          String.mapi
            (fun i c ->
              if i = pos then Char.chr ((Char.code c + delta) land 0xff)
              else c)
            raw))

(* --- chaos: crash + corrupted cache in one sweep ---------------------------- *)

let test_chaos_sweep_still_correct () =
  (* One crashing task and one corrupted cache entry in the same
     durable run: every healthy point must still come back correct. *)
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let healthy = [ "p0"; "p1"; "p2"; "p3" ] in
      let value_of key = "value:" ^ key in
      let task_of key = Task.make ~key (fun ~seed:_ -> value_of key) in
      (* Fill two entries, then corrupt one of them. *)
      ignore (Durable.run ~cache (List.map task_of [ "p0"; "p1" ]));
      clobber
        (entry_path dir ~key:(Cache.key ~parts:[ "p1" ]))
        (fun raw -> "XX" ^ raw);
      let outcomes =
        Durable.run ~jobs:4 ~cache
          (List.map task_of healthy
          @ [
              Task.make ~key:"chaos/crash" (fun ~seed:_ ->
                  failwith "chaos crash");
            ])
      in
      (* The corrupted entry joins the misses. *)
      (match outcomes with
      | [ Durable.Hit _; Durable.Ran p1; Durable.Ran _; Durable.Ran _;
          Durable.Ran crash ] ->
          Alcotest.(check string) "p1 recomputed" (value_of "p1")
            (Pool.value_exn p1);
          Alcotest.(check string) "crash recorded"
            "error: Failure(\"chaos crash\")" (Pool.status crash)
      | _ -> Alcotest.fail "expected p0 served and the rest run");
      (* The crash never finished, so it left no cache entry. *)
      Alcotest.(check (option string)) "chaos/crash not stored" None
        (Cache.find cache ~key:(Cache.key ~parts:[ "chaos/crash" ]));
      (* Every healthy point now serves its correct value. *)
      let served = Durable.run ~cache (List.map task_of healthy) in
      Alcotest.(check (list string))
        "every healthy point served" (times 4 "hit") (sources served);
      Alcotest.(check (list string))
        "each correct after the chaos" (List.map value_of healthy)
        (List.map payload_of served);
      Alcotest.(check int) "the corrupted entry was evicted once" 1
        (Cache.evictions cache))

(* --- property: parallel == sequential -------------------------------------- *)

(* Tasks print a deterministic function of their key and seed into a
   capture buffer; the pool must return those outputs byte-identical
   and input-ordered no matter how many domains drained the queue. *)
let output_tasks keys =
  List.map
    (fun key ->
      Task.make ~key (fun ~seed ->
          fst
            (Taq_util.Out.with_buffer (fun () ->
                 Taq_util.Out.printf "key=%s seed=%d\n" key seed;
                 let prng = Taq_util.Prng.create ~seed in
                 for _ = 1 to 5 do
                   Taq_util.Out.printf "%.6f " (Taq_util.Prng.float prng 1.0)
                 done))))
    keys

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"pool: jobs=4 outputs identical to jobs=1" ~count:30
    QCheck.(list_of_size Gen.(int_range 0 12) small_printable_string)
    (fun raw_keys ->
      (* Make keys unique: duplicate keys are legal but make the
         comparison trivially flaky to express. *)
      let keys =
        List.mapi (fun i k -> Printf.sprintf "%d/%s" i k) raw_keys
      in
      let seq = Pool.run ~jobs:1 (output_tasks keys) in
      let par = Pool.run ~jobs:4 (output_tasks keys) in
      List.for_all2
        (fun a b ->
          a.Pool.key = b.Pool.key
          && Pool.value_exn a = Pool.value_exn b)
        seq par)

(* --- Pool: a raising on_done, cancellation --------------------------------- *)

(* A raising on_done ends only the worker that called it: the others
   take every remaining task, and Pool.run raises the callback's
   exception once all of them have been joined. Each task counts itself
   when it ends, after a sleep, so a pool that raised before the others
   finished would leave tasks uncounted here. *)
let test_pool_on_done_raise_parallel () =
  let n = 12 in
  let counters = Array.init n (fun _ -> Atomic.make 0) in
  let tasks =
    List.init n (fun i ->
        Task.make ~key:(Printf.sprintf "task-%d" i) (fun ~seed:_ ->
            Unix.sleepf 0.01;
            Atomic.incr counters.(i);
            i))
  in
  match
    Pool.run ~jobs:4
      ~on_done:(fun ~completed:_ ~total:_ r ->
        if r.Pool.key = "task-0" then failwith "poisoned callback")
      tasks
  with
  | _ -> Alcotest.fail "a raising on_done must leave Pool.run at jobs=4"
  | exception Failure msg ->
      Alcotest.(check string) "the callback's error" "poisoned callback" msg;
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "task %d ran exactly once" i)
            1 (Atomic.get c))
        counters

let test_pool_on_done_raise_releases_mutex_sequential () =
  (* jobs=1 path: the callback's exception propagates to the caller,
     but the progress mutex must have been released on the way out. *)
  (match
     Pool.run ~jobs:1
       ~on_done:(fun ~completed:_ ~total:_ _ -> failwith "cb")
       [ Task.make ~key:"only" (fun ~seed:_ -> 0) ]
   with
  | _ -> Alcotest.fail "raising on_done must propagate at jobs=1"
  | exception Failure msg -> Alcotest.(check string) "the callback's error" "cb" msg);
  ()

let test_pool_cancellation () =
  Fun.protect ~finally:Pool.reset_cancel (fun () ->
      let ran = Atomic.make 0 in
      let tasks =
        List.init 8 (fun i ->
            Task.make ~key:(Printf.sprintf "c%d" i) (fun ~seed:_ ->
                Atomic.incr ran;
                if i = 0 then Pool.request_cancel ();
                Unix.sleepf 0.02;
                i))
      in
      let results = Pool.run ~jobs:2 tasks in
      Alcotest.(check int) "every task has a result" 8 (List.length results);
      let cancelled = List.filter Pool.cancelled results in
      Alcotest.(check bool)
        "some tasks were skipped" true
        (List.length cancelled > 0);
      List.iter
        (fun (r : int Pool.result) ->
          Alcotest.(check string)
            (r.Pool.key ^ " status") "cancelled" (Pool.status r))
        cancelled;
      (* In-flight tasks completed; skipped ones never ran. *)
      Alcotest.(check int)
        "executed + cancelled = all" 8
        (Atomic.get ran + List.length cancelled))

let test_pool_cancel_sequential () =
  Fun.protect ~finally:Pool.reset_cancel (fun () ->
      let results =
        Pool.run ~jobs:1
          [
            Task.make ~key:"first" (fun ~seed:_ ->
                Pool.request_cancel ();
                1);
            Task.make ~key:"second" (fun ~seed:_ -> 2);
            Task.make ~key:"third" (fun ~seed:_ -> 3);
          ]
      in
      match results with
      | [ a; b; c ] ->
          Alcotest.(check int) "in-flight task completed" 1 (Pool.value_exn a);
          Alcotest.(check bool) "second cancelled" true (Pool.cancelled b);
          Alcotest.(check bool) "third cancelled" true (Pool.cancelled c)
      | _ -> Alcotest.fail "expected 3 results")

(* --- Cache: degraded stores -------------------------------------------------- *)

(* A cache over a path that cannot be a directory (it is a file), so
   every store fails. *)
let with_unwritable_cache f =
  incr temp_cache_counter;
  let blocker =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taq-cache-blocker-%d-%d" (Unix.getpid ())
         !temp_cache_counter)
  in
  let oc = open_out_bin blocker in
  output_string oc "not a directory";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove blocker with Sys_error _ -> ())
    (fun () -> f (Cache.create ~dir:blocker ()))

let test_cache_store_degrades_on_io_error () =
  (* Stores must fail soft: no exception, io_errors counted, and find
     still reports a miss. *)
  with_unwritable_cache (fun cache ->
      let key = Cache.key ~parts:[ "degraded" ] in
      Cache.store cache ~key "payload";
      Alcotest.(check int) "store failure counted" 1 (Cache.io_errors cache);
      Alcotest.(check (option string))
        "entry absent after failed store" None (Cache.find cache ~key);
      (* A second failure doesn't raise either. *)
      Cache.store cache ~key "payload";
      Alcotest.(check int) "still failing soft" 2 (Cache.io_errors cache))

(* --- Durable runner: a rerun after a kill, warm reruns ------------------- *)

let counters_policy = { Obs.policy_counters = true; policy_trace = None }

(* Tasks with a deterministic per-task counter footprint. *)
let durable_tasks () =
  List.init 6 (fun i ->
      let key = Printf.sprintf "durable/p%d" i in
      Task.make ~key (fun ~seed ->
          let obs = Obs.of_policy counters_policy in
          Obs.labeled obs "durable.work" (seed mod 1000);
          Obs.labeled obs "durable.tasks" 1;
          Printf.sprintf "out:%s:%d" key seed))

let merged outcomes = Obs.merge_all (List.map Durable.obs outcomes)

let check_same_as ~reference label outcomes =
  let a = merged reference and b = merged outcomes in
  Alcotest.(check bool)
    (label ^ ": merged task counters identical")
    true
    (a.Obs.counters = b.Obs.counters && a.Obs.gauges = b.Obs.gauges);
  Alcotest.(check (list string))
    (label ^ ": payloads identical")
    (List.map payload_of reference)
    (List.map payload_of outcomes)

(* The full acceptance arc, in-process: an uninterrupted reference;
   then a real interrupted run (cooperative cancellation after the
   third completion, so the rest never start); then a plain rerun,
   which must serve exactly the three stored tasks and merge to the
   reference's counters and payloads. (CI repeats this against the
   real binary with a real SIGKILL.) *)
let test_durable_resume_counters_identical () =
  with_temp_cache (fun cache ->
      let run ?on_done ?(jobs = 2) () =
        Durable.run ~counters:true ~jobs ?on_done ~cache (durable_tasks ())
      in
      let reference = Durable.run ~counters:true ~jobs:2 (durable_tasks ()) in
      Fun.protect ~finally:Pool.reset_cancel (fun () ->
          Alcotest.(check (list string))
            "killed after three completions"
            (times 3 "ran" @ times 3 "cancelled")
            (sources
               (run ~jobs:1
                  ~on_done:(fun ~completed ~total:_ _ ->
                    if completed = 3 then Pool.request_cancel ())
                  ())));
      let rerun = run () in
      Alcotest.(check (list string))
        "the three stored tasks served, the rest recomputed"
        (times 3 "hit" @ times 3 "ran")
        (sources rerun);
      check_same_as ~reference "rerun" rerun;
      let again = run () in
      Alcotest.(check (list string))
        "rerunning the finished run serves all" (times 6 "hit")
        (sources again);
      check_same_as ~reference "rerun again" again)

(* A warm rerun serves every task with the counters it was computed
   with; a store filled with counters off holds no snapshots, so with
   counters on its tasks are recomputed rather than served bare. *)
let test_durable_warm_counters () =
  let run ?(counters = true) cache =
    Durable.run ~counters ~jobs:2 ~cache (durable_tasks ())
  in
  with_temp_cache (fun cache ->
      let cold = run cache in
      let warm = run cache in
      Alcotest.(check (list string)) "cold" (times 6 "ran") (sources cold);
      Alcotest.(check (list string)) "warm" (times 6 "hit") (sources warm);
      check_same_as ~reference:cold "warm" warm);
  with_temp_cache (fun cache ->
      let reference = Durable.run ~counters:true (durable_tasks ()) in
      Alcotest.(check (list string))
        "counters off: computed" (times 6 "ran")
        (sources (run ~counters:false cache));
      let recomputed = run cache in
      Alcotest.(check (list string))
        "no snapshots stored: recomputed" (times 6 "ran")
        (sources recomputed);
      check_same_as ~reference "recomputed" recomputed;
      Alcotest.(check (list string))
        "then served" (times 6 "hit") (sources (run cache)))

(* With counters on, a payload is served only beside the snapshot it
   was computed with. [spoil dir cache key] damages one task's
   snapshot; the rerun must recompute that task alone and merge to the
   reference's counters. *)
let check_spoiled_snapshot_recomputed spoil =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let run () =
        Durable.run ~counters:true ~jobs:2 ~cache (durable_tasks ())
      in
      let reference = run () in
      spoil dir cache "durable/p2";
      let rerun = run () in
      Alcotest.(check (list string))
        "only the spoiled task recomputed"
        (times 2 "hit" @ [ "ran" ] @ times 3 "hit")
        (sources rerun);
      check_same_as ~reference "rerun" rerun;
      Alcotest.(check (list string))
        "then served" (times 6 "hit") (sources (run ())))

let obs_entry key = Cache.key ~parts:[ key; "obs" ]

(* A kill between a task's payload store and its snapshot store. *)
let test_durable_payload_without_snapshot () =
  check_spoiled_snapshot_recomputed (fun dir _ key ->
      Sys.remove (entry_path dir ~key:(obs_entry key)))

(* An intact entry that does not parse as a snapshot. *)
let test_durable_unparseable_snapshot () =
  check_spoiled_snapshot_recomputed (fun _ cache key ->
      Cache.store cache ~key:(obs_entry key) "not a snapshot")

(* With counters off no snapshot is read: a cache filled with counters
   on serves every task, each with empty counters. *)
let test_durable_counters_off_serves_payloads () =
  with_temp_cache (fun cache ->
      let filled =
        Durable.run ~counters:true ~jobs:2 ~cache (durable_tasks ())
      in
      let bare = Durable.run ~jobs:2 ~cache (durable_tasks ()) in
      Alcotest.(check (list string)) "all served" (times 6 "hit") (sources bare);
      Alcotest.(check (list string))
        "payloads as computed" (List.map payload_of filled)
        (List.map payload_of bare);
      Alcotest.(check bool) "no counters served" true
        (List.for_all (fun o -> (Durable.obs o).Obs.counters = []) bare))

(* A failed task stores nothing, so rerunning the same command runs it
   again; once it succeeds it is stored and served like the rest. *)
let test_durable_failed_task_rerun () =
  with_temp_cache (fun cache ->
      let attempts = Atomic.make 0 in
      let flaky =
        Task.make ~key:"durable/flaky" (fun ~seed:_ ->
            if Atomic.fetch_and_add attempts 1 = 0 then failwith "first run"
            else "recovered")
      in
      let run () = Durable.run ~jobs:2 ~cache (durable_tasks () @ [ flaky ]) in
      (match List.rev (run ()) with
      | Durable.Ran r :: _ ->
          Alcotest.(check bool) "first run failed" true
            (Result.is_error r.Pool.value)
      | _ -> Alcotest.fail "the flaky task must run");
      let rerun = run () in
      Alcotest.(check (list string))
        "only the failed task runs again"
        (times 6 "hit" @ [ "ran" ])
        (sources rerun);
      Alcotest.(check string) "and now succeeds" "recovered"
        (payload_of (List.nth rerun 6));
      Alcotest.(check (list string))
        "then served" (times 7 "hit") (sources (run ()));
      Alcotest.(check int) "run twice in all" 2 (Atomic.get attempts))

(* A cache that cannot be written degrades the run to uncached: every
   task still runs and returns its payload, each failed store is
   counted, and a rerun finds nothing to serve. *)
let test_durable_unwritable_cache () =
  let reference = Durable.run ~jobs:2 (durable_tasks ()) in
  with_unwritable_cache (fun cache ->
      let run () = Durable.run ~jobs:2 ~cache (durable_tasks ()) in
      let first = run () in
      Alcotest.(check (list string)) "every task ran" (times 6 "ran")
        (sources first);
      check_same_as ~reference "uncached" first;
      Alcotest.(check int) "each store failed soft" 6 (Cache.io_errors cache);
      Alcotest.(check (list string))
        "nothing served on a rerun" (times 6 "ran")
        (sources (run ())))

(* --- suite ----------------------------------------------------------------- *)

let () =
  Alcotest.run "taq_harness"
    [
      ( "task",
        [
          Alcotest.test_case "seed deterministic" `Quick
            test_seed_deterministic;
          Alcotest.test_case "seeds distinct" `Quick test_seed_distinct_keys;
          Alcotest.test_case "seed non-negative" `Quick
            test_seed_non_negative;
          Alcotest.test_case "run passes derived seed" `Quick
            test_task_receives_derived_seed;
        ] );
      ( "pool",
        [
          Alcotest.test_case "each task once (jobs=1)" `Quick
            (test_pool_runs_each_task_once 1);
          Alcotest.test_case "each task once (jobs=4)" `Quick
            (test_pool_runs_each_task_once 4);
          Alcotest.test_case "empty task list" `Quick test_pool_empty;
          Alcotest.test_case "failure isolated" `Quick
            test_pool_failure_isolated;
          Alcotest.test_case "on_done progress" `Quick
            test_pool_on_done_progress;
          Alcotest.test_case "poisoned on_done propagates (jobs=4)" `Quick
            test_pool_on_done_raise_parallel;
          Alcotest.test_case "poisoned on_done propagates (jobs=1)" `Quick
            test_pool_on_done_raise_releases_mutex_sequential;
          Alcotest.test_case "cooperative cancellation (parallel)" `Quick
            test_pool_cancellation;
          Alcotest.test_case "cooperative cancellation (sequential)" `Quick
            test_pool_cancel_sequential;
        ] );
      ( "capture",
        [
          Alcotest.test_case "buffers output" `Quick
            test_capture_buffers_output;
          Alcotest.test_case "nested captures restore" `Quick
            test_capture_nested_restores;
          Alcotest.test_case "table print captured" `Quick
            test_capture_table_print_is_captured;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "store roundtrip" `Quick
            test_cache_store_roundtrip;
          Alcotest.test_case "torn entry self-heals" `Quick
            test_cache_torn_entry_evicted;
          Alcotest.test_case "bit rot evicted" `Quick
            test_cache_bitrot_evicted;
          Alcotest.test_case "legacy entry evicted" `Quick
            test_cache_legacy_entry_evicted;
          Alcotest.test_case "trailer round-trips tricky payloads" `Quick
            test_cache_trailer_roundtrips_tricky_payloads;
          Alcotest.test_case "store degrades on I/O error" `Quick
            test_cache_store_degrades_on_io_error;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash+corruption sweep" `Quick
            test_chaos_sweep_still_correct;
        ] );
      ( "durability",
        [
          Alcotest.test_case "kill-mid-sweep resume: counters identical"
            `Quick test_durable_resume_counters_identical;
          Alcotest.test_case "warm rerun: hits carry their counters" `Quick
            test_durable_warm_counters;
          Alcotest.test_case "payload without snapshot: recomputed" `Quick
            test_durable_payload_without_snapshot;
          Alcotest.test_case "unparseable snapshot: recomputed" `Quick
            test_durable_unparseable_snapshot;
          Alcotest.test_case "counters off: payloads served" `Quick
            test_durable_counters_off_serves_payloads;
          Alcotest.test_case "failed task: run again on rerun" `Quick
            test_durable_failed_task_rerun;
          Alcotest.test_case "unwritable cache: runs uncached" `Quick
            test_durable_unwritable_cache;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_cache_truncation_is_miss;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_cache_corruption_is_miss;
        ] );
    ]

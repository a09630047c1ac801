(* Tests for taq_harness: the Domain pool (every task runs exactly
   once, results stay input-ordered at jobs in {1,4}), deterministic
   task-seed derivation, per-task output capture, the on-disk result
   cache, the journal, the durable runner (kill-and-resume, warm
   reruns, mega checkpoints), and a qcheck property that parallel and
   sequential runs of the same task list produce identical per-task
   outputs. *)

module Task = Taq_harness.Task
module Pool = Taq_harness.Pool
module Capture = Taq_harness.Capture
module Cache = Taq_harness.Cache
module Journal = Taq_harness.Journal
module Durable = Taq_harness.Durable
module Mega_tier = Taq_experiments.Mega_tier
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

(* --- Pool: resilience (timeout / retry / quarantine) ------------------------ *)

let test_pool_timeout_quarantines () =
  let tasks =
    [
      Task.make ~key:"fast" (fun ~seed:_ -> 1);
      Task.make ~key:"slow" (fun ~seed:_ ->
          Unix.sleepf 3.0;
          2);
      Task.make ~key:"fast-2" (fun ~seed:_ -> 3);
    ]
  in
  let results = Pool.run ~jobs:2 ~timeout_s:0.2 tasks in
  match results with
  | [ a; b; c ] ->
      Alcotest.(check int) "fast unaffected by the deadline" 1
        (Pool.value_exn a);
      Alcotest.(check int) "fast-2 unaffected" 3 (Pool.value_exn c);
      Alcotest.(check bool) "slow flagged timed_out" true b.Pool.timed_out;
      Alcotest.(check int) "single attempt by default" 1 b.Pool.attempts;
      (match b.Pool.value with
      | Error msg ->
          Alcotest.(check bool)
            "error names the deadline" true
            (contains ~needle:"timed out" msg)
      | Ok _ -> Alcotest.fail "hung task reported Ok");
      Alcotest.(check string) "status renders timeout" "timeout"
        (Pool.status b)
  | _ -> Alcotest.fail "expected 3 results"

let test_pool_retry_until_success () =
  (* Flaky by construction: the first attempt of each task raises, the
     retry succeeds. Retried tasks must come back Ok with the attempt
     count recorded. *)
  let tries = Atomic.make 0 in
  let results =
    Pool.run ~jobs:1 ~retries:2 ~backoff_s:0.001
      [
        Task.make ~key:"flaky" (fun ~seed:_ ->
            if Atomic.fetch_and_add tries 1 = 0 then failwith "transient";
            42);
      ]
  in
  match results with
  | [ r ] ->
      Alcotest.(check int) "retried to success" 42 (Pool.value_exn r);
      Alcotest.(check int) "two attempts recorded" 2 r.Pool.attempts;
      Alcotest.(check bool) "not a timeout" false r.Pool.timed_out;
      Alcotest.(check string) "status says retried" "ok (retried x1)"
        (Pool.status r)
  | _ -> Alcotest.fail "expected 1 result"

let test_pool_retry_exhausted () =
  let tries = Atomic.make 0 in
  let results =
    Pool.run ~jobs:1 ~retries:1 ~backoff_s:0.001
      [
        Task.make ~key:"doomed" (fun ~seed:_ ->
            Atomic.incr tries;
            failwith "permanent");
      ]
  in
  match results with
  | [ r ] ->
      Alcotest.(check int) "budget honoured: 1 + 1 retries" 2
        (Atomic.get tries);
      Alcotest.(check int) "attempts recorded" 2 r.Pool.attempts;
      (match r.Pool.value with
      | Error msg ->
          Alcotest.(check bool)
            "quarantined with the last error" true
            (contains ~needle:"permanent" msg)
      | Ok _ -> Alcotest.fail "doomed task reported Ok");
      Alcotest.(check bool)
        "status counts the attempts" true
        (contains ~needle:"2 attempts" (Pool.status r))
  | _ -> Alcotest.fail "expected 1 result"

(* --- Capture --------------------------------------------------------------- *)

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
        let inner = Capture.text (fun () -> Taq_util.Out.printf "inner") in
        Alcotest.(check string) "inner isolated" "inner" inner;
        Taq_util.Out.printf "after")
  in
  Alcotest.(check string) "outer unaffected by nesting" "before|after" outer

let test_capture_table_print_is_captured () =
  let out =
    Capture.text (fun () ->
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

let with_temp_cache f =
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
    (fun () -> f (Cache.create ~dir ()))

(* A store over [cache], journaling to [journal] in its directory. *)
let store ?(journal = "test.journal") ?(resume = false) cache =
  { Durable.cache; journal; resume }

let payload_of = function
  | Durable.Restored s | Durable.Hit s -> s.Durable.payload
  | Durable.Ran r -> Pool.value_exn r

(* Where each outcome came from, for whole-run assertions. *)
let sources =
  List.map (function
    | Durable.Restored _ -> "restored"
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
      (match Durable.run ~store:(store cache) [ task "payload" ] with
      | [ Durable.Ran r ] ->
          Alcotest.(check string) "computed payload" "payload"
            (Pool.value_exn r)
      | _ -> Alcotest.fail "first run must be a miss");
      (match Durable.run ~store:(store cache) [ task "recomputed!" ] with
      | [ Durable.Hit s ] ->
          Alcotest.(check string) "served from disk" "payload" s.Durable.payload
      | _ -> Alcotest.fail "second run must be a hit");
      Alcotest.(check int) "computed exactly once" 1 !computed;
      (* Tasks sharing a key each run on a cold store, and are each
         served once it is warm. *)
      let twice () =
        Durable.run ~store:(store cache)
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

let entry_path cache ~key = Filename.concat (Cache.dir cache) (key ^ ".txt")

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
  with_temp_cache (fun cache ->
      let key = Cache.key ~parts:[ "torn" ] in
      Cache.store cache ~key "precious payload";
      (* Simulate a torn write: drop the tail of the file (part of the
         payload and the whole trailer). *)
      clobber (entry_path cache ~key) (fun raw ->
          String.sub raw 0 (String.length raw / 2));
      Alcotest.(check (option string))
        "torn entry reads as a miss" None (Cache.find cache ~key);
      Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache);
      Alcotest.(check bool)
        "torn file removed from disk" false
        (Sys.file_exists (entry_path cache ~key));
      (* The caller recomputes and re-stores. *)
      Cache.store cache ~key "recomputed";
      Alcotest.(check (option string))
        "healed entry serves again" (Some "recomputed") (Cache.find cache ~key))

let test_cache_bitrot_evicted () =
  with_temp_cache (fun cache ->
      let key = Cache.key ~parts:[ "rot" ] in
      Cache.store cache ~key "payload-v1";
      (* Flip payload bytes but keep the length: only the digest can
         catch this. *)
      clobber (entry_path cache ~key) (fun raw ->
          String.mapi (fun i c -> if i < 7 then 'X' else c) raw);
      Alcotest.(check (option string))
        "digest mismatch reads as a miss" None (Cache.find cache ~key);
      Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache))

let test_cache_legacy_entry_evicted () =
  with_temp_cache (fun cache ->
      let key = Cache.key ~parts:[ "legacy" ] in
      (* A pre-trailer entry written by an older harness: raw payload,
         no trailer line. *)
      let dir = Cache.dir cache in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out_bin (entry_path cache ~key) in
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

(* --- chaos: crash + hang + corrupted cache in one sweep --------------------- *)

let test_chaos_sweep_still_correct () =
  (* The acceptance scenario from the robustness issue: one crashing
     task, one hanging task and one corrupted cache entry, all in the
     same durable run — every healthy point must still come back
     correct. *)
  with_temp_cache (fun cache ->
      let healthy = [ "p0"; "p1"; "p2"; "p3" ] in
      let value_of key = "value:" ^ key in
      let task_of key = Task.make ~key (fun ~seed:_ -> value_of key) in
      (* Fill two entries, then corrupt one of them. *)
      ignore
        (Durable.run ~store:(store cache) (List.map task_of [ "p0"; "p1" ]));
      clobber
        (entry_path cache ~key:(Cache.key ~parts:[ "p1" ]))
        (fun raw -> "XX" ^ raw);
      let outcomes =
        Durable.run ~jobs:4 ~timeout_s:0.3 ~retries:1 ~store:(store cache)
          (List.map task_of healthy
          @ [
              Task.make ~key:"chaos/crash" (fun ~seed:_ ->
                  failwith "chaos crash");
              Task.make ~key:"chaos/hang" (fun ~seed:_ ->
                  Unix.sleepf 3.0;
                  "unreachable");
            ])
      in
      (* The corrupted entry joins the misses. *)
      (match outcomes with
      | [ Durable.Hit _; Durable.Ran p1; Durable.Ran _; Durable.Ran _;
          Durable.Ran crash; Durable.Ran hang ] ->
          Alcotest.(check string) "p1 recomputed" (value_of "p1")
            (Pool.value_exn p1);
          Alcotest.(check bool)
            "crash quarantined" true
            (Result.is_error crash.Pool.value);
          Alcotest.(check bool) "hang timed out" true hang.Pool.timed_out
      | _ -> Alcotest.fail "expected p0 served and the rest run");
      (* The chaos tasks never finish: the journal holds their starts
         and nothing else. *)
      let records =
        Journal.replay
          ~path:(Filename.concat (Cache.dir cache) "test.journal")
          ()
      in
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " started") true
            (List.mem (Journal.Start key) records);
          Alcotest.(check bool) (key ^ " never finished") false
            (Hashtbl.mem (Journal.finished records) key))
        [ "chaos/crash"; "chaos/hang" ];
      (* Every healthy point now serves its correct value. *)
      let served = Durable.run ~store:(store cache) (List.map task_of healthy) in
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
          Capture.text (fun () ->
              Taq_util.Out.printf "key=%s seed=%d\n" key seed;
              let prng = Taq_util.Prng.create ~seed in
              for _ = 1 to 5 do
                Taq_util.Out.printf "%.6f " (Taq_util.Prng.float prng 1.0)
              done)))
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

(* --- Pool: supervision, cancellation, backoff cap --------------------------- *)

let test_pool_on_done_poison_respawns () =
  (* A raising on_done kills its worker (the pool mutex is released by
     Fun.protect first); supervision must respawn workers so the rest
     of the queue still drains — no deadlock, no lost results beyond
     the poisoned callbacks' own tasks, which were already recorded. *)
  let n = 6 in
  let tasks =
    List.init n (fun i ->
        Task.make ~key:(Printf.sprintf "t%d" i) (fun ~seed:_ ->
            (* Slow the first tasks slightly so both workers pick one
               up before the queue drains. *)
            if i < 2 then Unix.sleepf 0.05;
            i))
  in
  let results =
    Pool.run ~jobs:2
      ~on_done:(fun ~completed:_ ~total:_ r ->
        if r.Pool.key = "t0" || r.Pool.key = "t1" then
          failwith "poisoned callback")
      tasks
  in
  Alcotest.(check int) "all results present" n (List.length results);
  List.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "task %d completed despite worker deaths" i)
        i (Pool.value_exn r))
    results

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
          Alcotest.(check int)
            (r.Pool.key ^ " never executed")
            0 r.Pool.attempts;
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

let test_pool_backoff_capped () =
  (* 5 retries at backoff_s=0.05 would sleep 0.05+0.1+0.2+0.4+0.8 =
     1.55 s uncapped; capped at 0.05 the total is 0.25 s. The margin
     below (1 s) is generous enough for slow CI machines yet far under
     the uncapped sum. *)
  let t0 = Unix.gettimeofday () in
  let results =
    Pool.run ~jobs:1 ~retries:5 ~backoff_s:0.05 ~backoff_cap_s:0.05
      [ Task.make ~key:"doomed" (fun ~seed:_ -> failwith "always") ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match results with
  | [ r ] -> Alcotest.(check int) "all attempts made" 6 r.Pool.attempts
  | _ -> Alcotest.fail "expected 1 result");
  Alcotest.(check bool)
    (Printf.sprintf "backoff capped (%.2f s elapsed)" elapsed)
    true (elapsed < 1.0)

(* --- Cache: degraded stores -------------------------------------------------- *)

let test_cache_store_degrades_on_io_error () =
  (* Point the cache at a path that cannot be a directory (it is a
     file): stores must fail soft — no exception, io_errors counted,
     and find still reports a miss. *)
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
    (fun () ->
      let cache = Cache.create ~dir:blocker () in
      let key = Cache.key ~parts:[ "degraded" ] in
      Cache.store cache ~key "payload";
      Alcotest.(check int) "store failure counted" 1 (Cache.io_errors cache);
      Alcotest.(check (option string))
        "entry absent after failed store" None (Cache.find cache ~key);
      (* A second failure doesn't raise either. *)
      Cache.store cache ~key "payload";
      Alcotest.(check int) "still failing soft" 2 (Cache.io_errors cache))

(* --- Journal ----------------------------------------------------------------- *)

let tricky_keys =
  [
    "plain/key=1";
    "with space";
    "percent%20literal";
    "tab\there";
    "newline\nembedded";
    "trailing ";
    " leading";
    "control\x01\x7fbytes";
    "high-bytes \xc3\xa9\xff";
    "";
  ]

let test_journal_line_roundtrip () =
  List.iter
    (fun key ->
      let records =
        [
          Journal.Start key;
          Journal.Finish { key; digest = String.make 32 'a' };
        ]
      in
      List.iter
        (fun r ->
          let line = Journal.line_of_record r in
          Alcotest.(check bool)
            (Printf.sprintf "line for %S is newline-terminated" key)
            true
            (String.length line > 0 && line.[String.length line - 1] = '\n');
          match
            Journal.record_of_line (String.sub line 0 (String.length line - 1))
          with
          | Some r' ->
              Alcotest.(check bool)
                (Printf.sprintf "record for %S round-trips" key)
                true (r = r')
          | None -> Alcotest.failf "line for %S did not parse back" key)
        records)
    tricky_keys

let test_journal_append_replay () =
  incr temp_cache_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taq-journal-%d-%d.wal" (Unix.getpid ())
         !temp_cache_counter)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let j = Journal.open_append ~path ~fresh:true () in
      Alcotest.(check bool) "journal healthy" true (Journal.healthy j);
      let records =
        List.concat_map
          (fun key ->
            [
              Journal.Start key;
              Journal.Finish
                { key; digest = Digest.to_hex (Digest.string key) };
            ])
          tricky_keys
      in
      List.iter (Journal.append j) records;
      Journal.close j;
      let replayed = Journal.replay ~path () in
      Alcotest.(check bool) "replay returns all records" true
        (replayed = records);
      (* Idempotence: replaying again yields the same list. *)
      Alcotest.(check bool) "replay idempotent" true
        (Journal.replay ~path () = replayed);
      (* Appending after a replay keeps old records and adds new ones. *)
      let j2 = Journal.open_append ~path ~fresh:false () in
      Journal.append j2 (Journal.Start "appended-later");
      Journal.close j2;
      Alcotest.(check bool) "append-after-replay extends the prefix" true
        (Journal.replay ~path ()
        = records @ [ Journal.Start "appended-later" ]);
      (* [finished] keeps the digest of every completed key. *)
      let fin = Journal.finished (Journal.replay ~path ()) in
      List.iter
        (fun key ->
          Alcotest.(check (option string))
            (Printf.sprintf "finished digest for %S" key)
            (Some (Digest.to_hex (Digest.string key)))
            (Hashtbl.find_opt fin key))
        tricky_keys)

let test_journal_degrades_on_io_error () =
  (* Parent "directory" is a file: the journal must come back degraded
     (healthy=false), and appends must be silent no-ops. *)
  incr temp_cache_counter;
  let blocker =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taq-journal-blocker-%d-%d" (Unix.getpid ())
         !temp_cache_counter)
  in
  let oc = open_out_bin blocker in
  output_string oc "file, not dir";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove blocker with Sys_error _ -> ())
    (fun () ->
      let j =
        Journal.open_append
          ~path:(Filename.concat blocker "sweep.journal")
          ~fresh:true ()
      in
      Alcotest.(check bool) "degraded on open failure" false
        (Journal.healthy j);
      (* Appends on a degraded journal must not raise. *)
      Journal.append j (Journal.Start "ignored");
      Journal.close j)

(* Replay of any damaged byte stream is a prefix of the appended
   records: truncation chops the tail, and corrupting any byte can at
   worst invalidate the record it lands in and everything after. *)
let arbitrary_record =
  let open QCheck in
  let key_gen = string_gen_of_size Gen.(int_range 0 20) Gen.char in
  map
    (fun (key, finish) ->
      if finish then
        Journal.Finish { key; digest = Digest.to_hex (Digest.string key) }
      else Journal.Start key)
    (pair key_gen bool)

let is_prefix_of ~prefix records =
  let rec go p r =
    match (p, r) with
    | [], _ -> true
    | _, [] -> false
    | a :: p', b :: r' -> a = b && go p' r'
  in
  go prefix records

let prop_journal_truncation_yields_prefix =
  QCheck.Test.make
    ~name:"journal: replay of any truncation is a prefix" ~count:200
    QCheck.(
      pair (list_of_size Gen.(int_range 0 12) arbitrary_record) small_nat)
    (fun (records, cut) ->
      let stream = String.concat "" (List.map Journal.line_of_record records) in
      let cut = if String.length stream = 0 then 0 else cut mod (String.length stream + 1) in
      let damaged = String.sub stream 0 cut in
      is_prefix_of ~prefix:(Journal.decode damaged) records)

let prop_journal_corruption_yields_prefix =
  QCheck.Test.make
    ~name:"journal: replay of any single-byte corruption is a prefix"
    ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 12) arbitrary_record)
        small_nat (int_range 0 255))
    (fun (records, pos, byte) ->
      let stream = String.concat "" (List.map Journal.line_of_record records) in
      let pos = pos mod String.length stream in
      let damaged =
        String.mapi
          (fun i c -> if i = pos then Char.chr byte else c)
          stream
      in
      is_prefix_of ~prefix:(Journal.decode damaged) records)

(* --- Durable runner: kill-and-resume, warm reruns, trust rule ------------- *)

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
   third completion, so the rest never start); then a resume, which
   must restore exactly the three persisted tasks and merge to the
   reference's counters and payloads. (CI repeats this against the
   real binary with a real SIGKILL.) *)
let test_durable_resume_counters_identical () =
  let obs = Obs.create () in
  with_temp_cache (fun cache ->
      let run ?on_done ?(jobs = 2) ~resume () =
        Durable.run ~obs ~jobs ?on_done ~store:(store ~resume cache)
          (durable_tasks ())
      in
      let reference = Durable.run ~obs ~jobs:2 (durable_tasks ()) in
      Fun.protect ~finally:Pool.reset_cancel (fun () ->
          Alcotest.(check (list string))
            "killed after three completions"
            (times 3 "ran" @ times 3 "cancelled")
            (sources
               (run ~jobs:1 ~resume:false
                  ~on_done:(fun ~completed ~total:_ _ ->
                    if completed = 3 then Pool.request_cancel ())
                  ())));
      let resumed = run ~resume:true () in
      Alcotest.(check (list string))
        "the three persisted tasks restored, the rest recomputed"
        (times 3 "restored" @ times 3 "ran")
        (sources resumed);
      check_same_as ~reference "resumed" resumed;
      let again = run ~resume:true () in
      Alcotest.(check (list string))
        "resuming the finished run restores all" (times 6 "restored")
        (sources again);
      check_same_as ~reference "resumed again" again)

(* A warm rerun serves every task with the counters it was computed
   with; a store filled with counters off holds no snapshots, so with
   counters on its tasks are recomputed rather than served bare. *)
let test_durable_warm_counters () =
  let counted = Obs.create () in
  let run ?(obs = counted) cache =
    Durable.run ~obs ~jobs:2 ~store:(store cache) (durable_tasks ())
  in
  with_temp_cache (fun cache ->
      let cold = run cache in
      let warm = run cache in
      Alcotest.(check (list string)) "cold" (times 6 "ran") (sources cold);
      Alcotest.(check (list string)) "warm" (times 6 "hit") (sources warm);
      check_same_as ~reference:cold "warm" warm);
  with_temp_cache (fun cache ->
      let reference = Durable.run ~obs:counted (durable_tasks ()) in
      Alcotest.(check (list string))
        "counters off: computed" (times 6 "ran")
        (sources (run ~obs:Obs.off cache));
      let recomputed = run cache in
      Alcotest.(check (list string))
        "no snapshots stored: recomputed" (times 6 "ran")
        (sources recomputed);
      check_same_as ~reference "recomputed" recomputed;
      Alcotest.(check (list string))
        "then served" (times 6 "hit") (sources (run cache)))

(* The journal testifies to a digest, not to a key: a payload stored
   again with other bytes after its Finish is served, but as a hit. *)
let test_durable_digest_mismatch_is_hit () =
  with_temp_cache (fun cache ->
      ignore (Durable.run ~store:(store cache) (durable_tasks ()));
      Cache.store cache ~key:(Cache.key ~parts:[ "durable/p2" ]) "rewritten";
      let resumed =
        Durable.run ~store:(store ~resume:true cache) (durable_tasks ())
      in
      Alcotest.(check (list string))
        "all but the rewritten task restored"
        (times 2 "restored" @ [ "hit" ] @ times 3 "restored")
        (sources resumed);
      Alcotest.(check string)
        "the rewritten bytes are served" "rewritten"
        (payload_of (List.nth resumed 2)))

(* Mega checkpoints end to end: a checkpointed run, then a resumed one
   that restores every shard bit-identically. *)
let test_mega_checkpoint_resume () =
  let p =
    {
      Mega_tier.quick with
      total_flows = 2000;
      shards = 2;
      capacity_bps = 4e6;
      duration = 1.0;
    }
  in
  let bits r =
    let s = r.Mega_tier.summary in
    ( r.Mega_tier.shard,
      s.Taq_workload.Mega.n,
      List.map Int64.bits_of_float
        [
          r.Mega_tier.fluid_arrived_bytes; r.fluid_dropped_bytes; r.fg_jain;
          r.fg_loss; r.utilization; s.mean_rtt; s.mean_pkt_bytes; s.min_rtt;
          s.max_rtt;
        ] )
  in
  with_temp_cache (fun cache ->
      let store ~resume = store ~journal:"mega.journal" ~resume cache in
      let fresh = Mega_tier.run ~jobs:2 ~store:(store ~resume:false) p in
      let resumed = Mega_tier.run ~store:(store ~resume:true) p in
      Alcotest.(check int) "fresh run restores nothing" 0
        fresh.Mega_tier.restored_shards;
      Alcotest.(check int) "every shard restored" p.Mega_tier.shards
        resumed.Mega_tier.restored_shards;
      Alcotest.(check bool) "shard results bit-identical" true
        (List.map bits fresh.Mega_tier.shard_results
        = List.map bits resumed.Mega_tier.shard_results);
      Alcotest.(check string) "cohort identical"
        (Taq_workload.Mega.summary_to_wire fresh.Mega_tier.cohort)
        (Taq_workload.Mega.summary_to_wire resumed.Mega_tier.cohort))

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
          Alcotest.test_case "timeout quarantines" `Quick
            test_pool_timeout_quarantines;
          Alcotest.test_case "retry until success" `Quick
            test_pool_retry_until_success;
          Alcotest.test_case "retry budget exhausted" `Quick
            test_pool_retry_exhausted;
          Alcotest.test_case "poisoned on_done respawns workers" `Quick
            test_pool_on_done_poison_respawns;
          Alcotest.test_case "poisoned on_done propagates (jobs=1)" `Quick
            test_pool_on_done_raise_releases_mutex_sequential;
          Alcotest.test_case "cooperative cancellation (parallel)" `Quick
            test_pool_cancellation;
          Alcotest.test_case "cooperative cancellation (sequential)" `Quick
            test_pool_cancel_sequential;
          Alcotest.test_case "retry backoff capped" `Quick
            test_pool_backoff_capped;
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
      ( "journal",
        [
          Alcotest.test_case "line round-trips tricky keys" `Quick
            test_journal_line_roundtrip;
          Alcotest.test_case "append / replay / finished" `Quick
            test_journal_append_replay;
          Alcotest.test_case "degrades on I/O error" `Quick
            test_journal_degrades_on_io_error;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash+hang+corruption sweep" `Quick
            test_chaos_sweep_still_correct;
        ] );
      ( "durability",
        [
          Alcotest.test_case "kill-mid-sweep resume: counters identical"
            `Quick test_durable_resume_counters_identical;
          Alcotest.test_case "warm rerun: hits carry their counters" `Quick
            test_durable_warm_counters;
          Alcotest.test_case "digest mismatch: hit, not restored" `Quick
            test_durable_digest_mismatch_is_hit;
          Alcotest.test_case "mega checkpoint resume" `Quick
            test_mega_checkpoint_resume;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_journal_truncation_yields_prefix;
          QCheck_alcotest.to_alcotest
            ~rand:(Qcheck_seed.rand ~file:"test_harness")
            prop_journal_corruption_yields_prefix;
        ] );
    ]

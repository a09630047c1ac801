(* The durable task runner. See the .mli for the on-disk layout and the
   rule for trusting it. *)

module Obs = Taq_obs.Obs

type served = { payload : string; obs : Obs.snapshot }

type outcome = Hit of served | Ran of string Pool.result

let payload_entry key = Cache.key ~parts:[ key ]

let obs_entry key = Cache.key ~parts:[ key; "obs" ]

(* What the cache holds for [key], if it is to be trusted: the payload,
   and with [counters] a parseable snapshot too. *)
let serve cache ~counters key =
  match Cache.find cache ~key:(payload_entry key) with
  | None -> None
  | Some payload ->
      let snapshot =
        if not counters then Some Obs.empty_snapshot
        else
          Option.bind
            (Cache.find cache ~key:(obs_entry key))
            (fun s -> Result.to_option (Obs.snapshot_of_string s))
      in
      Option.map (fun obs -> Hit { payload; obs }) snapshot

(* Payload, then snapshot: a kill between the two leaves a payload
   that is not served while counters are on. *)
let persist cache ~counters (r : string Pool.result) =
  match r.Pool.value with
  | Error _ -> ()
  | Ok payload ->
      let key = r.Pool.key in
      Cache.store cache ~key:(payload_entry key) payload;
      if counters then
        Cache.store cache ~key:(obs_entry key)
          (Obs.snapshot_to_string r.Pool.obs)

let run ?(counters = false) ?jobs ?on_done ?cache tasks =
  let served, ran =
    match cache with
    | None -> (List.map (fun _ -> None) tasks, Pool.run ?jobs ?on_done tasks)
    | Some cache ->
        (* Every task is probed before any runs, so tasks sharing a key
           all run on a cold cache. *)
        let probed =
          List.map (fun t -> (t, serve cache ~counters (Task.key t))) tasks
        in
        let todo =
          List.filter_map
            (fun (t, s) -> if Option.is_none s then Some t else None)
            probed
        in
        let on_done ~completed ~total r =
          persist cache ~counters r;
          Option.iter (fun f -> f ~completed ~total r) on_done
        in
        (List.map snd probed, Pool.run ?jobs ~on_done todo)
  in
  (* Stitch the pool's input-ordered results back between the served
     tasks. *)
  let ran = Queue.of_seq (List.to_seq ran) in
  List.map
    (function Some outcome -> outcome | None -> Ran (Queue.pop ran))
    served

let obs = function Hit s -> s.obs | Ran r -> r.Pool.obs

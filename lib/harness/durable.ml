(* The durable task runner. See the .mli for the on-disk layout and the
   rule for trusting it. *)

module Obs = Taq_obs.Obs

type store = { cache : Cache.t; journal : string; resume : bool }

type served = { payload : string; obs : Obs.snapshot }

type outcome = Restored of served | Hit of served | Ran of string Pool.result

let payload_entry key = Cache.key ~parts:[ key ]

let obs_entry key = Cache.key ~parts:[ key; "obs" ]

let digest payload = Digest.to_hex (Digest.string payload)

(* What the store holds for [key], if it is to be trusted: the payload,
   and with [counters] a parseable snapshot too. [finished] is the
   journal's key → digest table (empty unless resuming). *)
let serve store ~finished ~counters key =
  match Cache.find store.cache ~key:(payload_entry key) with
  | None -> None
  | Some payload ->
      let snapshot =
        if not counters then Some Obs.empty_snapshot
        else
          Option.bind
            (Cache.find store.cache ~key:(obs_entry key))
            (fun s -> Result.to_option (Obs.snapshot_of_string s))
      in
      Option.map
        (fun obs ->
          let s = { payload; obs } in
          if Hashtbl.find_opt finished key = Some (digest payload) then
            Restored s
          else Hit s)
        snapshot

(* Payload, then snapshot, then the Finish record that testifies to
   both. *)
let persist store journal ~counters (r : string Pool.result) =
  match r.Pool.value with
  | Error _ -> ()
  | Ok payload ->
      let key = r.Pool.key in
      Cache.store store.cache ~key:(payload_entry key) payload;
      if counters then
        Cache.store store.cache ~key:(obs_entry key)
          (Obs.snapshot_to_string r.Pool.obs);
      Journal.append journal (Journal.Finish { key; digest = digest payload })

let run ?(obs = Obs.off) ?jobs ?timeout_s ?retries ?on_done ?store tasks =
  let counters = Obs.enabled obs in
  let pool ?on_start ?on_done todo =
    Pool.run ~obs ?jobs ?timeout_s ?retries ?on_start ?on_done todo
  in
  let served, ran =
    match store with
    | None -> (List.map (fun _ -> None) tasks, pool ?on_done tasks)
    | Some store ->
        let path = Filename.concat (Cache.dir store.cache) store.journal in
        let finished =
          if store.resume then
            Journal.finished (Journal.replay ~obs ~path ())
          else Hashtbl.create 1
        in
        (* Every task is probed before any runs, so tasks sharing a key
           all run on a cold store. *)
        let probed =
          List.map
            (fun t -> (t, serve store ~finished ~counters (Task.key t)))
            tasks
        in
        let todo =
          List.filter_map
            (fun (t, s) -> if Option.is_none s then Some t else None)
            probed
        in
        let journal =
          Journal.open_append ~obs ~path ~fresh:(not store.resume) ()
        in
        let on_start key = Journal.append journal (Journal.Start key) in
        let on_done ~completed ~total r =
          persist store journal ~counters r;
          Option.iter (fun f -> f ~completed ~total r) on_done
        in
        ( List.map snd probed,
          Fun.protect
            ~finally:(fun () -> Journal.close journal)
            (fun () -> pool ~on_start ~on_done todo) )
  in
  (* Stitch the pool's input-ordered results back between the served
     tasks. *)
  let ran = Queue.of_seq (List.to_seq ran) in
  List.map
    (function Some outcome -> outcome | None -> Ran (Queue.pop ran))
    served

let obs = function
  | Restored s | Hit s -> s.obs
  | Ran r -> r.Pool.obs

type 'a result = {
  key : string;
  value : ('a, string) Stdlib.result;
  elapsed_s : float;
  obs : Taq_obs.Obs.snapshot;
}

(* --- cooperative cancellation ------------------------------------------ *)

(* One process-wide flag (run state, not run configuration): the CLI
   installs signal handlers on the main domain before any pool runs,
   worker domains poll the flag between tasks.
   The first signal asks the pool to finish in-flight tasks and mark
   the rest cancelled; the second exits immediately. *)

let cancel_flag = Atomic.make false

let request_cancel () = Atomic.set cancel_flag true

let reset_cancel () = Atomic.set cancel_flag false

let cancelled_exit_code = 130

let forced_exit_code = 131

let cancelled_message = "cancelled"

let install_signal_cancellation ?(label = "run") () =
  let handler _ =
    if Atomic.get cancel_flag then Stdlib.exit forced_exit_code
    else begin
      Atomic.set cancel_flag true;
      Printf.eprintf
        "taq: signal received — cancelling the %s after in-flight tasks \
         (signal again to force-quit)\n%!"
        label
    end
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* --- execution --------------------------------------------------------- *)

(* A task runs under its own observability collector, so the snapshot
   covers exactly the obs instances the task created. *)
let exec task =
  let t0 = Unix.gettimeofday () in
  let value, obs =
    Taq_obs.Obs.collecting (fun () ->
        match Task.run task with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e))
  in
  { key = Task.key task; value; elapsed_s = Unix.gettimeofday () -. t0; obs }

let skip task =
  {
    key = Task.key task;
    value = Error cancelled_message;
    elapsed_s = 0.0;
    obs = Taq_obs.Obs.empty_snapshot;
  }

let run ?(jobs = 1) ?on_done tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let results = Array.make n None in
  (* One lock over the results, the count and the callback, so
     callbacks never interleave. [Mutex.protect] releases it when
     [on_done] raises. *)
  let lock = Mutex.create () in
  let finished = ref 0 in
  let note i r =
    Mutex.protect lock (fun () ->
        results.(i) <- Some r;
        incr finished;
        Option.iter (fun f -> f ~completed:!finished ~total:n r) on_done)
  in
  (* Each index is taken once, by whichever worker gets to it first. *)
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let task = tasks.(i) in
      note i (if Atomic.get cancel_flag then skip task else exec task);
      worker ()
    end
  in
  if jobs <= 1 || n <= 1 then worker ()
  else begin
    let domains = List.init (Int.min jobs n) (fun _ -> Domain.spawn worker) in
    (* Every worker is joined before an exception from [on_done] is
       re-raised, so none outlives the call. *)
    let raised =
      List.filter_map
        (fun d -> match Domain.join d with () -> None | exception e -> Some e)
        domains
    in
    match raised with e :: _ -> raise e | [] -> ()
  end;
  Array.to_list (Array.map Option.get results)

let value_exn r =
  match r.value with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "task %s failed: %s" r.key msg)

let cancelled r =
  match r.value with Error msg -> msg = cancelled_message | Ok _ -> false

let status r =
  match r.value with
  | Ok _ -> "ok"
  | Error msg when msg = cancelled_message -> msg
  | Error msg -> "error: " ^ msg

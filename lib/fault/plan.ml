type window = { from_ : float; until : float }

type fault =
  | Flap of { at : float; down_for : float }
  | Corrupt of { w : window; p : float }
  | Duplicate of { w : window; p : float }
  | Reorder of { w : window; p : float; delay : float }
  | Ack_delay of { w : window; delay : float }
  | Restart of { at : float }
  | Loss of { p : float }
  | Flood of { at : float; dur : float; rate : float; kind : string }
  | Brownout of { at : float; dur : float; frac : float }
  | Jitter of { at : float; dur : float; ms : float }

type t = fault list

let flood_kinds = [ "syn"; "data"; "pool" ]

(* --- rendering ---------------------------------------------------------- *)

let window_to_string { from_; until } = Printf.sprintf "%g-%g" from_ until

let fault_to_string = function
  | Flap { at; down_for } -> Printf.sprintf "flap@%g+%g" at down_for
  | Corrupt { w; p } -> Printf.sprintf "corrupt@%s:p=%g" (window_to_string w) p
  | Duplicate { w; p } -> Printf.sprintf "dup@%s:p=%g" (window_to_string w) p
  | Reorder { w; p; delay } ->
      Printf.sprintf "reorder@%s:p=%g,delay=%g" (window_to_string w) p delay
  | Ack_delay { w; delay } ->
      Printf.sprintf "ackdelay@%s:delay=%g" (window_to_string w) delay
  | Restart { at } -> Printf.sprintf "restart@%g" at
  | Loss { p } -> Printf.sprintf "loss:p=%g" p
  | Flood { at; dur; rate; kind } ->
      (* [kind] is always printed, so the canonical form round-trips
         and equal plans render equally for sweep task keys. *)
      Printf.sprintf "flood@%g+%g:rate=%g,kind=%s" at dur rate kind
  | Brownout { at; dur; frac } ->
      Printf.sprintf "brownout@%g+%g:frac=%g" at dur frac
  | Jitter { at; dur; ms } -> Printf.sprintf "jitter@%g+%g:ms=%g" at dur ms

let to_string t = String.concat ";" (List.map fault_to_string t)

(* --- parsing ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_float ~what s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f -> Ok f
  | Some _ | None -> err "fault plan: bad %s %S" what s

let parse_time ~what s =
  let* f = parse_float ~what s in
  if f < 0.0 then err "fault plan: %s must be >= 0 (got %g)" what f else Ok f

let parse_prob ~what s =
  let* f = parse_float ~what s in
  if f < 0.0 || f > 1.0 then
    err "fault plan: %s must be in [0,1] (got %g)" what f
  else Ok f

(* "A-B" with both endpoints non-negative and A < B. Negative times
   are already rejected by the grammar (no leading '-'), so splitting
   on '-' is unambiguous. *)
let parse_window s =
  match String.index_opt s '-' with
  | None -> err "fault plan: expected window FROM-UNTIL, got %S" s
  | Some i ->
      let* from_ =
        parse_time ~what:"window start" (String.sub s 0 i)
      in
      let* until =
        parse_time ~what:"window end"
          (String.sub s (i + 1) (String.length s - i - 1))
      in
      if until <= from_ then
        err "fault plan: empty window %g-%g" from_ until
      else Ok { from_; until }

(* "k1=v1,k2=v2" -> assoc list. *)
let parse_kvs s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      match String.index_opt part '=' with
      | None -> err "fault plan: expected key=value, got %S" part
      | Some i ->
          let k = String.trim (String.sub part 0 i) in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          Ok ((k, v) :: acc))
    (Ok []) parts

let kv_get kvs ~clause key =
  match List.assoc_opt key kvs with
  | Some v -> Ok v
  | None -> err "fault plan: %s clause needs %s=..." clause key

let kv_reject_unknown kvs ~clause ~known =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
  | Some (k, _) -> err "fault plan: %s clause does not take %s=..." clause k
  | None -> Ok ()

(* One clause: "name@args:kvs" / "name@args" / "name:kvs". *)
let parse_clause clause =
  let name, rest =
    match String.index_opt clause '@' with
    | Some i ->
        ( String.sub clause 0 i,
          `At (String.sub clause (i + 1) (String.length clause - i - 1)) )
    | None -> (
        match String.index_opt clause ':' with
        | Some i ->
            ( String.sub clause 0 i,
              `Kvs (String.sub clause (i + 1) (String.length clause - i - 1))
            )
        | None -> (clause, `None))
  in
  let split_at_kvs s =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match (String.trim name, rest) with
  | "flap", `At spec -> (
      match String.index_opt spec '+' with
      | None -> err "fault plan: flap@T+D expected, got %S" clause
      | Some i ->
          let* at = parse_time ~what:"flap time" (String.sub spec 0 i) in
          let* down_for =
            parse_float ~what:"flap duration"
              (String.sub spec (i + 1) (String.length spec - i - 1))
          in
          if down_for <= 0.0 then
            err "fault plan: flap duration must be > 0 (got %g)" down_for
          else Ok (Flap { at; down_for }))
  | "corrupt", `At spec ->
      let wspec, kspec = split_at_kvs spec in
      let* w = parse_window wspec in
      let* kvs = parse_kvs kspec in
      let* () = kv_reject_unknown kvs ~clause:"corrupt" ~known:[ "p" ] in
      let* pv = kv_get kvs ~clause:"corrupt" "p" in
      let* p = parse_prob ~what:"corrupt p" pv in
      Ok (Corrupt { w; p })
  | "dup", `At spec ->
      let wspec, kspec = split_at_kvs spec in
      let* w = parse_window wspec in
      let* kvs = parse_kvs kspec in
      let* () = kv_reject_unknown kvs ~clause:"dup" ~known:[ "p" ] in
      let* pv = kv_get kvs ~clause:"dup" "p" in
      let* p = parse_prob ~what:"dup p" pv in
      Ok (Duplicate { w; p })
  | "reorder", `At spec ->
      let wspec, kspec = split_at_kvs spec in
      let* w = parse_window wspec in
      let* kvs = parse_kvs kspec in
      let* () =
        kv_reject_unknown kvs ~clause:"reorder" ~known:[ "p"; "delay" ]
      in
      let* pv = kv_get kvs ~clause:"reorder" "p" in
      let* p = parse_prob ~what:"reorder p" pv in
      let* dv = kv_get kvs ~clause:"reorder" "delay" in
      let* delay = parse_float ~what:"reorder delay" dv in
      if delay <= 0.0 then
        err "fault plan: reorder delay must be > 0 (got %g)" delay
      else Ok (Reorder { w; p; delay })
  | "ackdelay", `At spec ->
      let wspec, kspec = split_at_kvs spec in
      let* w = parse_window wspec in
      let* kvs = parse_kvs kspec in
      let* () = kv_reject_unknown kvs ~clause:"ackdelay" ~known:[ "delay" ] in
      let* dv = kv_get kvs ~clause:"ackdelay" "delay" in
      let* delay = parse_float ~what:"ackdelay delay" dv in
      if delay <= 0.0 then
        err "fault plan: ackdelay delay must be > 0 (got %g)" delay
      else Ok (Ack_delay { w; delay })
  | "restart", `At spec ->
      let* at = parse_time ~what:"restart time" spec in
      Ok (Restart { at })
  | "flood", `At spec -> (
      let tspec, kspec = split_at_kvs spec in
      match String.index_opt tspec '+' with
      | None -> err "fault plan: flood@T+D:rate=R expected, got %S" clause
      | Some i ->
          let* at = parse_time ~what:"flood time" (String.sub tspec 0 i) in
          let* dur =
            parse_float ~what:"flood duration"
              (String.sub tspec (i + 1) (String.length tspec - i - 1))
          in
          if dur <= 0.0 then
            err "fault plan: flood duration must be > 0 (got %g)" dur
          else
            let* kvs = parse_kvs kspec in
            let* () =
              kv_reject_unknown kvs ~clause:"flood" ~known:[ "rate"; "kind" ]
            in
            let* rv = kv_get kvs ~clause:"flood" "rate" in
            let* rate = parse_float ~what:"flood rate" rv in
            if rate <= 0.0 then
              err "fault plan: flood rate must be > 0 (got %g)" rate
            else
              let kind =
                match List.assoc_opt "kind" kvs with
                | None -> "syn"
                | Some k -> String.trim k
              in
              if not (List.mem kind flood_kinds) then
                err "fault plan: flood kind must be one of %s (got %S)"
                  (String.concat ", " flood_kinds)
                  kind
              else Ok (Flood { at; dur; rate; kind }))
  | "brownout", `At spec -> (
      let tspec, kspec = split_at_kvs spec in
      match String.index_opt tspec '+' with
      | None -> err "fault plan: brownout@T+D:frac=F expected, got %S" clause
      | Some i ->
          let* at = parse_time ~what:"brownout time" (String.sub tspec 0 i) in
          let* dur =
            parse_float ~what:"brownout duration"
              (String.sub tspec (i + 1) (String.length tspec - i - 1))
          in
          if dur <= 0.0 then
            err "fault plan: brownout duration must be > 0 (got %g)" dur
          else
            let* kvs = parse_kvs kspec in
            let* () =
              kv_reject_unknown kvs ~clause:"brownout" ~known:[ "frac" ]
            in
            let* fv = kv_get kvs ~clause:"brownout" "frac" in
            let* frac = parse_float ~what:"brownout frac" fv in
            if frac <= 0.0 || frac >= 1.0 then
              err
                "fault plan: brownout frac must be in (0,1) — a fraction of \
                 nominal rate (got %g)"
                frac
            else Ok (Brownout { at; dur; frac }))
  | "jitter", `At spec -> (
      let tspec, kspec = split_at_kvs spec in
      match String.index_opt tspec '+' with
      | None -> err "fault plan: jitter@T+D:ms=J expected, got %S" clause
      | Some i ->
          let* at = parse_time ~what:"jitter time" (String.sub tspec 0 i) in
          let* dur =
            parse_float ~what:"jitter duration"
              (String.sub tspec (i + 1) (String.length tspec - i - 1))
          in
          if dur <= 0.0 then
            err "fault plan: jitter duration must be > 0 (got %g)" dur
          else
            let* kvs = parse_kvs kspec in
            let* () = kv_reject_unknown kvs ~clause:"jitter" ~known:[ "ms" ] in
            let* mv = kv_get kvs ~clause:"jitter" "ms" in
            let* ms = parse_float ~what:"jitter ms" mv in
            if ms <= 0.0 then
              err "fault plan: jitter ms must be > 0 (got %g)" ms
            else Ok (Jitter { at; dur; ms }))
  | "loss", `Kvs kspec ->
      let* kvs = parse_kvs kspec in
      let* () = kv_reject_unknown kvs ~clause:"loss" ~known:[ "p" ] in
      let* pv = kv_get kvs ~clause:"loss" "p" in
      let* p = parse_prob ~what:"loss p" pv in
      Ok (Loss { p })
  | _ ->
      err
        "fault plan: unknown clause %S (known: flap@T+D, corrupt@A-B:p=P, \
         dup@A-B:p=P, reorder@A-B:p=P,delay=D, ackdelay@A-B:delay=D, \
         restart@T, loss:p=P, flood@T+D:rate=R[,kind=syn|data|pool], \
         brownout@T+D:frac=F, jitter@T+D:ms=J)"
        clause

let of_string s =
  let clauses =
    List.filter_map
      (fun c ->
        let c = String.trim c in
        if c = "" then None else Some c)
      (String.split_on_char ';' s)
  in
  List.fold_left
    (fun acc clause ->
      let* acc = acc in
      let* f = parse_clause clause in
      Ok (f :: acc))
    (Ok []) clauses
  |> Result.map List.rev

(* --- queries ------------------------------------------------------------ *)

let fault_end = function
  | Flap { at; down_for } -> at +. down_for
  | Corrupt { w; _ } | Duplicate { w; _ } | Ack_delay { w; _ } -> w.until
  | Reorder { w; delay; _ } -> w.until +. delay
  | Restart { at } -> at
  | Loss _ -> infinity
  | Flood { at; dur; _ } -> at +. dur
  | Brownout { at; dur; _ } -> at +. dur
  | Jitter { at; dur; ms } -> at +. dur +. (ms /. 1000.0)

let fault_start = function
  | Flap { at; _ }
  | Restart { at }
  | Flood { at; _ }
  | Brownout { at; _ }
  | Jitter { at; _ } ->
      at
  | Corrupt { w; _ } | Duplicate { w; _ } | Reorder { w; _ } | Ack_delay { w; _ }
    ->
      w.from_
  | Loss _ -> 0.0

let horizon t = List.fold_left (fun acc f -> Float.max acc (fault_end f)) 0.0 t

let first_start t =
  List.fold_left (fun acc f -> Float.min acc (fault_start f)) infinity t

let spans t = List.map (fun f -> (fault_start f, fault_end f)) t

(* Hardening: a clause whose window opens at or after the run horizon
   injects nothing — almost always a typo'd time. Surface it before
   the run wastes a simulation discovering the same silently. *)
let check_within ~run_until t =
  let late =
    List.find_opt (fun f -> Float.is_finite run_until && fault_start f >= run_until) t
  in
  match late with
  | None -> Ok ()
  | Some f ->
      Error
        (Printf.sprintf
           "fault plan: clause %s starts at t=%g, at/after the run horizon \
            %g — it would never inject (shorten the start time or extend \
            the run)"
           (fault_to_string f) (fault_start f) run_until)

let is_empty t = t = []

let middlebox_only t =
  t <> [] && List.for_all (function Restart _ -> true | _ -> false) t

let has_flood t = List.exists (function Flood _ -> true | _ -> false) t

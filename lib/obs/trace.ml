type phase = Span | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts_us : float;
  dur_us : float;
  flow : int;
}

(* A fixed-capacity ring: when the buffer is full the oldest event is
   overwritten, so a long run keeps the most recent window instead of
   growing without bound. [dropped] counts the overwritten events. *)
type t = {
  ring : event option array;
  mutable next : int;
  mutable count : int;
  mutable dropped : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  let capacity = Stdlib.max 1 capacity in
  { ring = Array.make capacity None; next = 0; count = 0; dropped = 0 }

let add t ev =
  let cap = Array.length t.ring in
  if t.count = cap then t.dropped <- t.dropped + 1 else t.count <- t.count + 1;
  t.ring.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod cap

let count t = t.count

let dropped t = t.dropped

(* Oldest first. The ring wraps, so the oldest live entry sits at
   [next] once the buffer has filled. *)
let events t =
  let cap = Array.length t.ring in
  let start = if t.count = cap then t.next else 0 in
  List.init t.count (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some ev -> ev
      | None -> assert false)

(* --- Chrome trace_event JSON -------------------------------------------- *)

(* Stable thread ids per category keep Perfetto/chrome://tracing rows
   tidy: one row per component. *)
let tid_of_cat = function
  | "link" -> 1
  | "drop" -> 2
  | "taq" -> 3
  | "fault" -> 4
  | "phase" -> 5
  | _ -> 9

let event_to_json ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("ph", Json.Str (match ev.ph with Span -> "X" | Instant -> "i"));
      ("ts", Json.Num ev.ts_us);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int (tid_of_cat ev.cat)));
    ]
  in
  let base =
    match ev.ph with
    | Span -> base @ [ ("dur", Json.Num ev.dur_us) ]
    | Instant -> base @ [ ("s", Json.Str "g") ]
  in
  let base =
    if ev.flow >= 0 then
      base @ [ ("args", Json.Obj [ ("flow", Json.Num (float_of_int ev.flow)) ]) ]
    else base
  in
  Json.Obj base

let to_json events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_to_json events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* cat = Option.bind (Json.member "cat" j) Json.to_str in
  let* ph = Option.bind (Json.member "ph" j) Json.to_str in
  let* ts_us = Option.bind (Json.member "ts" j) Json.to_float in
  let* ph =
    match ph with "X" -> Some Span | "i" -> Some Instant | _ -> None
  in
  let dur_us =
    match Option.bind (Json.member "dur" j) Json.to_float with
    | Some d -> d
    | None -> 0.0
  in
  let flow =
    match
      Option.bind (Json.member "args" j) (fun args ->
          Option.bind (Json.member "flow" args) Json.to_int)
    with
    | Some f -> f
    | None -> -1
  in
  Some { name; cat; ph; ts_us; dur_us; flow }

let of_json j =
  match Option.bind (Json.member "traceEvents" j) Json.to_list with
  | None -> Error "missing traceEvents array"
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match event_of_json item with
            | Some ev -> go (ev :: acc) rest
            | None -> Error "malformed trace event")
      in
      go [] items

(* Sort by timestamp (stable, so simultaneous events keep insertion
   order) before writing: merged per-task rings arrive interleaved. *)
let write_file ~path events =
  let events =
    List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us) events
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (to_json events)))

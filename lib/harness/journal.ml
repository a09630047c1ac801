(* Append-only write-ahead journal: one checksummed record per line,
   fsync per append, torn-tail-tolerant replay. See the .mli for the
   format and crash-safety argument. *)

type record =
  | Start of string
  | Finish of { key : string; digest : string }

(* --- wire format -------------------------------------------------------- *)

(* Keys are arbitrary strings (sweep keys carry fault-plan expressions);
   percent-encode anything that could break the space/newline-delimited
   line shape. High bytes pass through verbatim — only '%', space,
   control bytes and DEL are escaped. *)
let must_escape c = c = '%' || c <= ' ' || c = '\x7f'

let encode_key key =
  if String.for_all (fun c -> not (must_escape c)) key then key
  else begin
    let b = Buffer.create (String.length key + 8) in
    String.iter
      (fun c ->
        if must_escape c then Printf.bprintf b "%%%02X" (Char.code c)
        else Buffer.add_char b c)
      key;
    Buffer.contents b
  end

let decode_key enc =
  let n = String.length enc in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if enc.[i] <> '%' then begin
      Buffer.add_char b enc.[i];
      go (i + 1)
    end
    else if i + 2 >= n then None
    else
      match (hex enc.[i + 1], hex enc.[i + 2]) with
      | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          go (i + 3)
      | _ -> None
  in
  go 0

let magic = "J1"

let payload_of_record = function
  | Start key -> Printf.sprintf "start %s" (encode_key key)
  | Finish { key; digest } ->
      Printf.sprintf "done %s %s" (encode_key key) digest

let line_of_record r =
  let payload = payload_of_record r in
  Printf.sprintf "%s %s %s\n" magic
    (Digest.to_hex (Digest.string payload))
    payload

let record_of_payload payload =
  match String.split_on_char ' ' payload with
  | [ "start"; enc ] -> Option.map (fun key -> Start key) (decode_key enc)
  | [ "done"; enc; digest ] when String.length digest = 32 ->
      Option.map (fun key -> Finish { key; digest }) (decode_key enc)
  | _ -> None

let record_of_line line =
  (* "J1 <32 hex> <payload>": fixed-width prefix, then the payload the
     checksum covers. The digest compare rejects any corruption. *)
  let prefix = String.length magic + 1 + 32 + 1 in
  if
    String.length line < prefix
    || String.sub line 0 (String.length magic + 1) <> magic ^ " "
    || line.[prefix - 1] <> ' '
  then None
  else
    let sum = String.sub line (String.length magic + 1) 32 in
    let payload = String.sub line prefix (String.length line - prefix) in
    if Digest.to_hex (Digest.string payload) <> sum then None
    else record_of_payload payload

(* Longest valid prefix of lines; the first malformed line (or a final
   chunk without its newline) ends the replay. Appends are sequential,
   so any crash damages only a suffix — hence the decoded list is
   always a prefix of what was appended. *)
let decode stream =
  let n = String.length stream in
  let rec go acc pos =
    if pos >= n then List.rev acc
    else
      match String.index_from_opt stream pos '\n' with
      | None -> List.rev acc (* torn tail: incomplete last line *)
      | Some nl -> (
          match record_of_line (String.sub stream pos (nl - pos)) with
          | Some r -> go (r :: acc) (nl + 1)
          | None -> List.rev acc)
  in
  go [] 0

(* --- journal handles ----------------------------------------------------- *)

type t = {
  path : string;
  mutex : Mutex.t;
  mutable chan : out_channel option; (* [None] = degraded to a no-op *)
  mutable appends : int;
  mutable io_errors : int;
  (* Resolved once at creation (main domain → root collector), bumped
     only inside the mutex — same pattern as [Cache]. *)
  obs_appends : int ref;
  obs_io_errors : int ref;
}

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let warn_degraded t msg =
  Printf.eprintf
    "taq journal: %s (%s) — journaling disabled, this run cannot be resumed\n%!"
    msg t.path

let degrade t msg =
  (match t.chan with Some oc -> close_out_noerr oc | None -> ());
  if t.chan <> None || t.io_errors = 0 then warn_degraded t msg;
  t.chan <- None;
  t.io_errors <- t.io_errors + 1;
  incr t.obs_io_errors

let open_append ?(obs = Taq_obs.Obs.off) ~path ~fresh () =
  let t =
    {
      path;
      mutex = Mutex.create ();
      chan = None;
      appends = 0;
      io_errors = 0;
      obs_appends = Taq_obs.Obs.labeled_ref obs "journal.appends";
      obs_io_errors = Taq_obs.Obs.labeled_ref obs "journal.io_errors";
    }
  in
  (try
     mkdirs (Filename.dirname path);
     let flags =
       if fresh then [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
       else [ Open_wronly; Open_creat; Open_append; Open_binary ]
     in
     t.chan <- Some (open_out_gen flags 0o644 path)
   with Sys_error msg | Failure msg -> degrade t msg);
  t

let healthy t = t.chan <> None

let append t r =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.chan with
      | None -> ()
      | Some oc -> (
          try
            output_string oc (line_of_record r);
            flush oc;
            (* The flush moved the bytes to the kernel; the fsync moves
               them to the platter. Only then is the record a promise. *)
            Unix.fsync (Unix.descr_of_out_channel oc);
            t.appends <- t.appends + 1;
            incr t.obs_appends
          with
          | Sys_error msg -> degrade t msg
          | Unix.Unix_error (e, _, _) -> degrade t (Unix.error_message e)))

let close t =
  Mutex.lock t.mutex;
  (match t.chan with Some oc -> close_out_noerr oc | None -> ());
  t.chan <- None;
  Mutex.unlock t.mutex

let replay ?(obs = Taq_obs.Obs.off) ~path () =
  if not (Sys.file_exists path) then []
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> []
    | exception End_of_file -> []
    | stream ->
        let records = decode stream in
        let consumed =
          List.fold_left
            (fun acc r -> acc + String.length (line_of_record r))
            0 records
        in
        Taq_obs.Obs.labeled obs "journal.replayed" (List.length records);
        if consumed < String.length stream then
          Taq_obs.Obs.labeled obs "journal.torn_tail_bytes"
            (String.length stream - consumed);
        records

let finished records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Start _ -> ()
      | Finish { key; digest } -> Hashtbl.replace tbl key digest)
    records;
  tbl

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable evictions : int;
  mutable io_errors : int;
  (* Observability mirrors of the counters above, resolved once at
     creation from the caller's instance. Bumped only inside this
     cache's mutex sections, so cross-domain updates are already
     serialized. *)
  obs_evictions : int ref;
  obs_io_errors : int ref;
}

let default_dir = "_results"

let create ?(obs = Taq_obs.Obs.off) ?(dir = default_dir) () =
  {
    dir;
    mutex = Mutex.create ();
    evictions = 0;
    io_errors = 0;
    obs_evictions = Taq_obs.Obs.labeled_ref obs "cache.evictions";
    obs_io_errors = Taq_obs.Obs.labeled_ref obs "cache.io_errors";
  }

(* Content address: MD5 over the NUL-joined parts. NUL never occurs in
   parameter renderings, so distinct part lists cannot collide by
   concatenation. *)
let key ~parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path t ~key = Filename.concat t.dir (key ^ ".txt")

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- integrity trailer --------------------------------------------------

   Every entry ends with one line:

     TAQCACHEv1 <payload-length> <md5-hex-of-payload>\n

   [find] verifies the trailer on every read and treats any mismatch —
   truncation, torn write, bit rot, a pre-trailer legacy entry — as a
   miss: the file is deleted (counted in [evictions]) and the caller
   recomputes, so a corrupted cache can never serve garbage. *)

let trailer_magic = "TAQCACHEv1"

let trailer payload =
  Printf.sprintf "%s %d %s\n" trailer_magic (String.length payload)
    (Digest.to_hex (Digest.string payload))

(* [payload_of_raw raw] is [Some data] iff [raw] is a payload followed
   by a valid trailer for exactly that payload. The payload is
   arbitrary bytes (it may contain, or even be, a trailer-shaped
   line), so the split point cannot be found by scanning for
   newlines. Instead it is solved for: a payload of length L yields a
   file of length L + |magic| + 45 - 10 ... concretely
   L + ndigits(L) + 45 bytes (magic 10, two spaces, digest 32,
   newline 1), and ndigits is monotone in L while the candidate L
   decreases as the assumed digit count grows — so at most one digit
   count d in 1..10 is consistent, and one string compare against the
   recomputed trailer settles it. *)
let payload_of_raw raw =
  let n = String.length raw in
  let ndigits l = String.length (string_of_int l) in
  let rec try_digits d =
    if d > 10 then None
    else
      let l = n - 45 - d in
      if l >= 0 && ndigits l = d then
        let payload = String.sub raw 0 l in
        if String.sub raw l (n - l) = trailer payload then Some payload
        else None
      else try_digits (d + 1)
  in
  try_digits 1

let evict t p =
  (try Sys.remove p with Sys_error _ -> ());
  Mutex.lock t.mutex;
  t.evictions <- t.evictions + 1;
  incr t.obs_evictions;
  Mutex.unlock t.mutex

let find t ~key:k =
  let p = path t ~key:k in
  if not (Sys.file_exists p) then None
  else
    match read_file p with
    | exception Sys_error _ -> None (* raced with a concurrent evict *)
    | exception End_of_file -> evict t p; None
    | raw -> (
        match payload_of_raw raw with
        | Some data -> Some data
        | None ->
            (* Torn, truncated or legacy entry: self-heal by eviction;
               the caller recomputes. *)
            evict t p;
            None)

let store t ~key:k data =
  (* Stores never take a run down: a cache that cannot be written
     (ENOSPC, read-only directory, quota) degrades this entry to
     uncached — warn once, bump [io_errors], and the caller's freshly
     computed result is still in hand. *)
  let tmp =
    Filename.concat t.dir (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) k)
  in
  try
    mkdirs t.dir;
    (* Write-then-rename so a concurrent reader never observes a torn
       entry; the temp file lives in the cache dir so the rename stays
       on one filesystem. *)
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc data;
        output_string oc (trailer data));
    Sys.rename tmp (path t ~key:k)
  with (Sys_error _ | Unix.Unix_error _) as e ->
    let msg =
      match e with
      | Sys_error m -> m
      | Unix.Unix_error (err, _, _) -> Unix.error_message err
      | _ -> Printexc.to_string e
    in
    (try Sys.remove tmp with Sys_error _ -> ());
    Mutex.lock t.mutex;
    t.io_errors <- t.io_errors + 1;
    incr t.obs_io_errors;
    let first = t.io_errors = 1 in
    Mutex.unlock t.mutex;
    if first then
      Printf.eprintf
        "taq cache: store failed (%s) — continuing uncached (dir: %s)\n%!"
        msg t.dir

let evictions t = t.evictions

let io_errors t = t.io_errors

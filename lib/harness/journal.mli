(** Append-only write-ahead journal for durable runs.

    A journal is the harness's crash ledger: before a task executes
    {!Durable} appends a {!record.Start}, and after its payload has
    been persisted to the {!Cache} it appends a {!record.Finish}
    carrying the payload's MD5. Every append is flushed and [fsync]ed
    before it returns, so the set of [Finish] records on disk is always
    a safe under-approximation of the work actually completed — a
    SIGKILL, OOM-kill or power loss can lose the record of the task
    that was in flight, never corrupt the records that preceded it. On
    restart, [taq_sim sweep --resume] / [taq_sim mega --resume] replay
    the journal through {!Durable}, restore journaled-complete tasks
    from the cache (digest verified), and re-execute only the
    remainder.

    {2 Record format}

    One record per line:

    {v J1 <md5-hex-of-payload> <payload>\n v}

    where [payload] is [start <key>] or [done <key> <digest>] and
    [key] is percent-encoded (['%'], spaces and control bytes become
    [%XX]), so a line is self-delimiting and self-verifying. Replay
    ({!decode}) accepts the longest valid prefix of lines: a torn tail
    — a partial last line from a crash mid-append, a truncated file,
    or a corrupted byte — terminates replay at the last good record
    instead of failing. Because appends are strictly sequential, any
    crash can only damage a suffix, so replay of a damaged journal is
    always a prefix of the records appended (the qcheck battery in
    [test_harness.ml] holds this over random truncations and
    corruptions).

    {2 Degradation}

    Journals never take a run down: if the file cannot be opened or an
    append fails (ENOSPC, read-only directory, quota), the journal
    degrades to a no-op — one warning on stderr, [journal.io_errors]
    bumped, {!healthy} false — and the run continues uncached-but-live
    rather than aborting. A degraded run simply cannot be resumed.

    Obs counters: [journal.appends], [journal.io_errors],
    [journal.replayed], [journal.torn_tail_bytes]. *)

type record =
  | Start of string  (** task key: execution began *)
  | Finish of { key : string; digest : string }
      (** task key + MD5 hex of the payload persisted to the cache *)

type t

val open_append :
  ?obs:Taq_obs.Obs.t -> path:string -> fresh:bool -> unit -> t
(** Open (creating parent directories as needed) for appending; [obs]
    (default [Taq_obs.Obs.off]) receives the append counters.
    [fresh = true] truncates any previous journal — a run that is not
    resuming starts its ledger from scratch; [fresh = false] keeps
    existing records and appends after them. Never raises: on I/O
    failure the journal comes back degraded ({!healthy} [= false]). *)

val healthy : t -> bool
(** Test hook: [false] once the journal has degraded to a no-op (open or
    append failure). *)

val append : t -> record -> unit
(** Format, write, flush and [fsync] one record (thread-safe; worker
    domains append concurrently). On I/O failure the journal degrades
    permanently: a warning is printed once, [journal.io_errors] is
    bumped, and every later append is a no-op. *)

val close : t -> unit

val replay : ?obs:Taq_obs.Obs.t -> path:string -> unit -> record list
(** Decode the longest valid prefix of the journal at [path]; [[]] if
    the file is missing or unreadable. [obs] (default
    [Taq_obs.Obs.off]) receives the replay counters. Replay is read-only and
    idempotent: replaying twice yields the same records, and replaying
    after further appends yields the old records followed by the new
    ones. *)

val finished : record list -> (string, string) Hashtbl.t
(** The completed tasks a replay testifies to: key → payload digest,
    last record winning. *)

(** {1 Wire format internals} — exposed for the test battery. *)

val line_of_record : record -> string
(** Test hook: the line codec, which the corruption tests write and break by
    hand. One checksummed line, ['\n']-terminated. *)

val record_of_line : string -> record option
(** Test hook: the other half of {!line_of_record}. Parse one line (without
    its ['\n']); [None] unless the checksum and shape verify. *)

val decode : string -> record list
(** Test hook: the reference replay that crash recovery is checked against.
    Pure replay of a journal byte stream: the longest prefix of valid lines.
    For any [records] and any truncation or suffix corruption of
    [String.concat "" (List.map line_of_record records)], the result is a
    prefix of [records]. *)

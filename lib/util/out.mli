(** Domain-local output redirection.

    Experiment code prints through this module instead of
    [Printf.printf]. By default everything goes to [stdout], so
    behaviour is unchanged for direct CLI runs — but a harness can
    call {!with_buffer} to capture a task's output into a private
    buffer. The capture sink is stored in domain-local state, which is
    what makes parallel sweep runs emit byte-identical, non-interleaved
    text per task: each worker domain redirects only itself. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** Like [Printf.printf], but writing to the current domain's sink
    (stdout unless captured). [%!] is accepted and ignored when
    captured. *)

val string : string -> unit
(** Write a raw string to the current sink. *)

val newline : unit -> unit

val with_buffer : (unit -> 'a) -> string * 'a
(** [with_buffer f] runs [f] with this domain's sink redirected to a
    fresh buffer and returns [(captured_text, result)]. The previous
    sink is restored even if [f] raises (the partial capture is then
    lost with the exception). Nesting is supported: the innermost
    buffer wins. *)

(** Streaming, constant-memory synthesis of the mega-tier background
    cohort.

    The mega tier models a million background flows; what it must
    never do is hold a million of anything. Every flow's parameters
    are a {e pure function} of [(seed, flow id)] — a fresh splitmix
    stream is derived per id, drawn from, and discarded — so the
    cohort exists only as it streams past a fold. Peak memory is
    independent of the population size, and any shard of the id space
    can be synthesised on any domain in any order with byte-identical
    results.

    Shape of the population (the paper's small-packet regime): packet
    sizes are skewed heavily toward the tiny end (40–256 B, with a
    minority at 512 B), and propagation RTTs are lognormal around the
    cohort's base RTT — a long-tailed mix of near and far clients.

    Sharding: the id space [[0, total)] splits into [n_shards]
    near-equal contiguous ranges. Shard summaries are computed
    independently (one per harness task) and {!merge}d; because each
    flow's draw is keyed by its id alone, the merged summary is
    identical for any shard count — the jobs-1-vs-4 counter-identity
    diff in CI rests on exactly this. *)

type flow = {
  id : int;
  rtt : float;  (** two-way propagation delay, seconds *)
  pkt_bytes : int;  (** the flow's packet size *)
}

type shard = { index : int; n_shards : int; total : int }

val shard : index:int -> n_shards:int -> total:int -> shard
(** @raise Invalid_argument
      unless [0 <= index < n_shards] and [total >= 0]. *)

(** {1 Cohort summaries} — the O(1)-size digest the fluid backend
    actually consumes. *)

type summary = {
  n : int;
  mean_rtt : float;
  mean_pkt_bytes : float;
  min_rtt : float;
  max_rtt : float;
}

val summarize : seed:int -> base_rtt:float -> shard -> summary
(** Fold the shard down to its population digest in constant memory. *)

val merge : summary -> summary -> summary
(** Combine digests of disjoint shards; associative, with {!empty} as
    identity. [merge a b = merge b a] up to float rounding — shards
    are merged in index order for determinism. *)

val empty : summary

val summary_to_string : summary -> string
(** Compact canonical rendering for reports and task keys, e.g.
    ["n=1000000,rtt=0.213,pkt=167.4"]. *)

val summary_to_wire : summary -> string
(** Exact wire form for shard checkpoints: floats as C99 hex literals
    ([%h]), so {!summary_of_wire} recovers the summary bit-for-bit and
    a mega run merges shards served from checkpoints byte-identically. *)

val summary_of_wire : string -> summary option
(** Inverse of {!summary_to_wire}; [None] on any malformed input. *)

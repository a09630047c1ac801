(** Packets as seen on the wire and by queue disciplines.

    A middlebox (and therefore every queue discipline, including TAQ)
    only sees these fields — never TCP-sender internals. Sequence
    numbers are in segments, not bytes: the whole simulation uses
    fixed-size segments, as the paper's simulations do.

    Records are pooled: the owning network {!release}s a packet once it
    has been consumed, and {!make} revives the record for the next
    packet with a fresh {!field-uid}. Fields are declared mutable for the
    allocator's sake only — every other component must treat a packet
    as immutable, and must not retain one past the call that delivered
    it. *)

type kind =
  | Syn  (** connection request (subject to admission control) *)
  | Syn_ack  (** connection accept, travels on the uncongested path *)
  | Data  (** one MSS-sized segment, [seq] is the segment index *)
  | Ack  (** cumulative ack, [seq] is the next expected segment *)
  | Fin  (** end of flow marker *)

type t = {
  mutable uid : int;
      (** unique per packet instance while live (retransmits get fresh
          uids; recycled records get fresh uids, so a uid never aliases
          a queued victim); negative exactly when the record is dead in
          the pool *)
  mutable flow : int;  (** flow identifier *)
  mutable pool : int;  (** flow-pool identifier, [-1] when the flow has no pool *)
  mutable kind : kind;
  mutable seq : int;
  mutable size : int;  (** bytes on the wire, headers included *)
  mutable retx : bool;
      (** is this a retransmission (sender-side knowledge; disciplines
          must not read it — they infer) *)
  mutable sacks : (int * int) list;
      (** SACK blocks on an Ack: [lo, hi)] segment ranges *)
  mutable sent_at : float;  (** time the packet entered the network *)
}

type alloc
(** A packet allocator and free list. Uids must be unique within one
    simulated network (disciplines compare them); each network owns its
    own allocator, so independent simulations share no mutable state
    and can run in parallel domains. *)

val alloc : unit -> alloc
(** A fresh allocator starting at uid 1, with an empty free list. *)

val fresh_uid : alloc -> int

val make :
  alloc:alloc ->
  flow:int ->
  ?pool:int ->
  kind:kind ->
  seq:int ->
  size:int ->
  ?retx:bool ->
  ?sacks:(int * int) list ->
  sent_at:float ->
  unit ->
  t
(** Allocate a packet with a fresh [uid] from [alloc], reviving a
    released record when the free list is non-empty. *)

val make_exact :
  alloc:alloc ->
  flow:int ->
  pool:int ->
  kind:kind ->
  seq:int ->
  size:int ->
  retx:bool ->
  sacks:(int * int) list ->
  sent_at:float ->
  t
(** Same as {!make} with every argument required: explicitly passing a
    value for an optional argument allocates a [Some] per call, so
    per-packet hot paths use this form. *)

val release : alloc -> t -> unit
(** Return a dead packet's record to [alloc]'s free list. Only the
    component that owns the packet's lifecycle (the dumbbell network)
    may call this, at points where no other reference can exist.
    Idempotent: releasing an already-released packet is a no-op (the
    uid is already negative). *)

val is_live : t -> bool
(** [true] while the record is allocated; [false] once released. *)

val free_count : alloc -> int
(** Number of records parked in the free list — tests and leak
    accounting. *)

val pp : Format.formatter -> t -> unit

val kind_to_string : kind -> string

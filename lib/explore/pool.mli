(** Fixed-size domain worker pool with deterministic, ordered
    mapping.

    The design-space engine's unit of parallelism is one candidate
    evaluation — an adequation plus a co-simulation, milliseconds to
    seconds of pure computation building only fresh data structures —
    so a coarse-grained pool over OCaml 5 domains parallelises it
    near-linearly (cf. the map-reduce synthesis of Alimguzhin et al.,
    arXiv:1210.2276).

    Scheduling: one mechanism serves every operation.  Each
    participating domain takes the next chunk of the input, in input
    order, off one shared source under the job's lock; the submitting
    domain folds the chunk results strictly in chunk order and runs
    chunks itself while it waits.  Irregular per-element costs (a
    cache hit is ~µs, a cold co-simulation ~ms) leave no domain idle
    while input remains, because a domain takes a new chunk as soon
    as it finishes one.

    Determinism contract: {!map} applies a {e pure} function to every
    element and returns the results in input order, so the output
    equals [List.map f xs] {e bit for bit} whatever the domain count,
    chunking or scheduling — the same discipline as the fault model's
    pure-hash sampler.  Functions must not rely on shared mutable
    state; everything in scilife's evaluation path builds fresh
    graphs per call and qualifies.

    When the pool has a single domain (the default on a single-core
    host, where [Domain.recommended_domain_count () = 1]) no domain is
    ever spawned and every operation degrades to the plain sequential
    implementation. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    submitting domain participates in its own maps, so [domains]
    domains compute in total).  Default
    [Domain.recommended_domain_count ()].  Raises [Invalid_argument]
    on [domains < 1]. *)

val domains : t -> int
(** The pool's total domain count (workers + the submitter). *)

val default : unit -> t
(** The shared process-wide pool, created on first use with the
    recommended domain count — what [?pool] arguments default to. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], computed by the pool's domains
    in chunks of [chunk] elements (default: about four chunks per
    domain) through the same ordered scheduler as {!map_reduce_seq}.
    Results come back in input order regardless of execution order.
    If any application raises, the exception of the {e smallest} input
    index is re-raised (so the raised exception is deterministic too)
    and the rest of the input is abandoned; chunks already running on
    other domains finish in the background and their results are
    dropped.  Reentrant calls from inside a pool task fall back to the
    sequential path rather than deadlock.  Raises [Invalid_argument]
    on [chunk < 1]. *)

val map_reduce_seq :
  ?chunk:int ->
  ?snapshot_every:int ->
  ?snapshot:(evaluated:int -> 'acc -> unit) ->
  t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a Seq.t ->
  'acc
(** [map_reduce_seq pool ~map ~reduce ~init xs] is the streaming
    ordered map-reduce: each domain takes the next [chunk] elements
    (default 8) off the input sequence when it is free, so spaces of
    millions of candidates are swept without ever materializing a
    list.  The mapped results are folded {e strictly in input order}
    on the submitting domain (which runs chunks of its own while the
    next one to fold is still in flight), so the result equals
    [Seq.fold_left reduce init (Seq.map map xs)] bit for bit whatever
    the domain count.

    [snapshot] is an anytime callback: after every [snapshot_every]
    elements reduced (default 4096) it receives the running
    accumulator and the exact count reduced so far — same cadence on
    the sequential path, so snapshot-observable behaviour is
    deterministic too.  The callback runs on the submitting domain;
    it must not mutate the accumulator.

    Exceptions: the first raising element {e in input order} wins —
    its exception is re-raised and the remaining stream is abandoned
    (chunks already running on other domains finish in the background
    and their results are dropped).  An exception of [reduce] or
    [snapshot] abandons the stream the same way.  A producer ([Seq])
    exception is re-raised after everything yielded before it has
    been reduced, exactly where the sequential fold would raise.
    Raises [Invalid_argument] on [chunk < 1] or
    [snapshot_every < 1]. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains.  Idempotent.  A pool must
    not be used after shutdown. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and always shuts it down —
    the scoped form tests and benchmarks use. *)

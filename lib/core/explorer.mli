(** The design-space exploration engine: candidate grids
    ({!Explore.Grid}) evaluated through the domain pool
    ({!Explore.Pool}) and the memoizing cache ({!Explore.Cache}) into
    multi-objective points, with Pareto-front extraction and report
    rendering.

    This is the batch form of the methodology's promise: every
    candidate implementation is judged by co-simulation {e at design
    time}, so sweeping periods × platforms × latency fractions × seeds
    is a large batch of independent deterministic evaluations — ideal
    for the pool — and many of its sub-problems recur across grids and
    re-runs — ideal for the cache.

    Determinism: points come back in job order (designs outer,
    candidates inner, both in input order) with values identical to a
    sequential evaluation, whatever the pool size and cache state. *)

type point = {
  design_name : string;
  ts : float;  (** the design's sampling period (the periods axis) *)
  platform : string;
  price : float;
  fraction : float;
  mode : Translator.Delay_graph.mode;
  ideal_cost : float;
  cost : float;  (** implemented cost ([inf] when infeasible) *)
  degradation_pct : float;
  io_latency : float;  (** static sampling-to-actuation latency *)
  makespan : float;
  fits_period : bool;
  infeasible : bool;  (** the adequation found no mapping *)
}

type outcome
(** One cached evaluation result (a sub-problem's cost and static
    temporal metrics).  Create a cache with
    [Explore.Cache.create () : outcome Explore.Cache.t] and share it
    across {!evaluate} calls. *)

val evaluate :
  ?pool:Explore.Pool.t ->
  ?cache:outcome Explore.Cache.t ->
  ?strategy:Aaa.Adequation.strategy ->
  ?engine_reuse:bool ->
  designs:Design.t list ->
  candidates:Explore.Grid.candidate list ->
  unit ->
  point list
(** Evaluates every design × candidate cell: one ideal co-simulation
    per design, then adequation + implemented co-simulation per cell.
    [pool] defaults to {!Explore.Pool.default}; with [cache] every
    sub-problem is keyed by its canonical digest ({!Explore.Key}) and
    replayed on a hit.  Raises [Invalid_argument] on empty inputs.

    With [engine_reuse] (the default) each domain reuses its last
    adequation across the seeds axis of the grid and evaluates
    jittered candidates by reseed + reset of the {!Session} compiled
    from that adequation, instead of re-implementing and re-compiling
    per candidate — bit-for-bit the same points by the Session
    determinism contract ([engine_reuse:false] restores the
    rebuild-per-candidate path, as a reference and for benchmarks).

    The cache key identifies the design by name, period, horizon and
    extracted algorithm graph — designs differing only inside their
    diagram-builder or cost closures must carry different names to
    share a cache soundly. *)

type progress = {
  p_evaluated : int;  (** candidates reduced so far *)
  p_feasible : int;
  p_infeasible : int;
  p_front : point list;  (** current front, price-ascending *)
}
(** Anytime snapshot of a streaming sweep. *)

type summary = {
  s_evaluated : int;
  s_feasible : int;
  s_infeasible : int;  (** adequation found no mapping *)
  s_front : point list;  (** final front, price-ascending *)
  s_samples : (int * point) list;
      (** every [sample_every]-th point with its global input index —
          for bit-for-bit subsampled checks against a sequential
          reference *)
}
(** Result of a streaming sweep.  The full point list is {e not}
    retained — that is the point. *)

val evaluate_seq :
  ?pool:Explore.Pool.t ->
  ?cache:outcome Explore.Cache.t ->
  ?strategy:Aaa.Adequation.strategy ->
  ?engine_reuse:bool ->
  ?snapshot_every:int ->
  ?snapshot:(progress -> unit) ->
  ?sample_every:int ->
  designs:Design.t list ->
  candidates:Explore.Grid.candidate Seq.t ->
  unit ->
  summary
(** Streaming map-reduce form of {!evaluate} for candidate spaces too
    large to materialize: candidates are pulled from the (persistent,
    replayable — e.g. {!Explore.Grid.seq}) sequence as domains run
    dry, evaluated points are folded in input order into running
    counters and an incremental Pareto front
    ({!Explore.Pareto.Front}), and [snapshot] — when given — receives
    an anytime {!progress} every [snapshot_every] evaluations
    (default 4096).  With [sample_every > 0] every such point is
    retained with its global index in [s_samples].  Deterministic:
    counters, front, samples and snapshot cadence are bit-for-bit
    identical to the sequential fold whatever the pool size.  The
    candidate sequence is replayed once per design.  Raises
    [Invalid_argument] on empty [designs]; an empty sequence yields
    an empty summary. *)

val feasible : point list -> point list
(** Points that adequated, fit the period and have a finite cost. *)

val pareto : point list -> point list
(** Non-dominated {!feasible} points under minimised
    [(price, cost)] — the engine's decision surface. *)

val markdown_section : ?cache:outcome Explore.Cache.t -> point list -> string
(** A ["## Design-space exploration"] markdown section: the candidate
    table, the Pareto front sorted by price, and — when [cache] is
    given — its hit/miss statistics.  Designed to be spliced into
    {!Report.markdown} via its [?exploration] argument. *)

val csv : point list -> string
(** One row per point with full-precision floats, for external
    plotting of the cost/latency/price cloud. *)

(** Shared-engine Monte-Carlo batches: many co-simulation scenarios
    through {e one} compiled {!Sim.Engine}.

    The per-run unit elsewhere in the toolchain rebuilds the diagram,
    the graph of delays and the compiled engine for every scenario
    ({!Lifecycle.Methodology.simulate_implemented}); for a batch of
    thousands of fault/latency scenarios that compilation dominates.
    Here the engine is compiled once per worker and scenarios vary
    only the jitter seed: the delay graph draws from a caller-held
    {!Numerics.Rng.t}, which is reseeded — and the engine reset —
    between runs.

    Determinism contract: [cost b ~seed] is bit-for-bit equal to
    evaluating the same design on a freshly built engine with
    [Jittered { law; bcet_frac; seed }] — the generator's whole state
    is the reseeded four words, the diagram builder is deterministic
    and {!Sim.Engine.reset} restores the compiled engine's initial
    state exactly.  [test/test_serve.ml] enforces the equality against
    {!Lifecycle.Montecarlo.run}.

    The engine-reuse core lives in {!Lifecycle.Session} (shared with
    the design-space explorer); this module keeps the serve-layer API
    and the pooled seed sweep. *)

type t = Lifecycle.Session.t
(** One compiled engine plus its reseedable jitter source. *)

val create :
  ?meth:Numerics.Ode.method_ ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?comm_jitter_frac:float ->
  design:Lifecycle.Design.t ->
  implementation:Lifecycle.Methodology.implementation ->
  unit ->
  t
(** Builds the implemented co-simulation (diagram + jittered graph of
    delays + probes) and compiles it once.  Defaults match
    {!Lifecycle.Montecarlo.run}: uniform law over
    [\[bcet_frac·WCET, WCET\]] with [bcet_frac] 0.4. *)

val cost : t -> seed:int -> float
(** Reseeds, resets, runs to the design's horizon and returns the
    design's cost.  Any number of calls, any seed order. *)

val costs :
  ?pool:Explore.Pool.t ->
  ?meth:Numerics.Ode.method_ ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?comm_jitter_frac:float ->
  design:Lifecycle.Design.t ->
  implementation:Lifecycle.Methodology.implementation ->
  int list ->
  float list
(** [costs ~pool ... seeds] evaluates every seed, in order.  Each
    domain obtains one compiled engine through the per-domain session
    slot ({!Lifecycle.Session.obtain}) and sweeps its share of the
    seeds through it, so compilation is amortised [⌈n/domains⌉]-fold
    while results stay bit-for-bit equal to the sequential (and to
    the per-seed rebuilding) evaluation, whichever domain takes which
    chunk of the list.  Default pool:
    {!Explore.Pool.default}. *)

val montecarlo :
  ?runs:int ->
  ?base_seed:int ->
  ?law:Exec.Timing_law.t ->
  ?bcet_frac:float ->
  ?pool:Explore.Pool.t ->
  design:Lifecycle.Design.t ->
  implementation:Lifecycle.Methodology.implementation ->
  unit ->
  Lifecycle.Montecarlo.summary
(** Drop-in equivalent of {!Lifecycle.Montecarlo.run} (same defaults,
    same summary, bit-for-bit equal costs) computed through shared
    engines.  The static (WCET) reference cost still uses one
    dedicated engine — its delay graph differs structurally.  Raises
    [Invalid_argument] on [runs <= 0]. *)

(** Hybrid (continuous/discrete-event) simulation of a block diagram —
    the Scicos-equivalent simulator of the methodology.

    The engine alternates two regimes:
    - between event instants, the concatenated continuous states of
      all blocks are integrated with a {!Numerics.Ode} method, with
      the outputs of always-active blocks re-evaluated inside the
      right-hand side;
    - at an event instant, pending activations are delivered in
      [(priority, emission order)] order, where the static priority is
      a linearisation of the data-dependency graph — so a
      sampler activated at the same instant as the controller it feeds
      executes first, exactly as Scicos orders simultaneous
      activations.

    Blocks may emit new events with zero delay; those are processed
    within the same instant, which is how chains of
    {!Dataflow.Eventlib.event_delay} blocks with zero latency and the
    {!Dataflow.Eventlib.synchronization} block behave like their
    Scicos counterparts.

    {2 Compiled hot path}

    {!create} compiles the diagram into flat runtime tables so the
    steady-state loops run without graph lookups or allocation:

    - the engine owns every block's output rows and copies what
      [outputs] returns into them, so a block may return a buffer it
      reuses; each input port is wired once, at {!create}, to its
      source's row, and event delivery uses precomputed arrays;
    - every block owns one reusable mutable {!Dataflow.Block.context}
      whose [cstate] array is refreshed in place before each callback,
      and whose [inputs] are the source rows themselves (callbacks must
      neither write nor retain them — see {!Dataflow.Block.context});
    - event delivery re-evaluates only the blocks whose outputs may
      have changed (the activated block plus its feedthrough closure,
      in topological order) instead of sweeping the whole diagram —
      this relies on [outputs] callbacks being pure functions of the
      context and internal state, part of the {!Dataflow.Block}
      contract;
    - integration between events runs through
      {!Numerics.Ode.integrate_inplace} with persistent workspaces;
      its right-hand side re-evaluates only the always-active blocks
      that some derivative reads, directly or through other
      always-active blocks (a block that is not always-active holds
      its outputs during integration and ends the search).  The
      integration observer still re-evaluates every always-active
      block at each accepted step, so outputs and probes at accepted
      points are those of the full sweep;
    - probe traces ({!Trace}) and the event log store flat floats and
      ints, not one heap object per sample or delivery, and keep their
      storage across {!reset}; the per-call copies are element loops,
      not C calls.

    All of this is observationally equivalent to the straightforward
    interpretation: traces, event logs and step counts are bit-for-bit
    identical (the [test/test_sim_perf.ml] suite enforces this). *)

type t

val create :
  ?meth:Numerics.Ode.method_ -> ?max_step:float -> ?debug:bool -> Dataflow.Graph.t -> t
(** Prepares a simulation: validates the graph, computes evaluation
    order, activation priorities, continuous-state layout and the
    compiled wiring/delivery tables, resets all blocks and queues
    their initial actions.  [max_step] bounds the integrator step
    between events (useful when a source block is time-varying between
    events).  [debug] (default [false]) disables the compiled hot
    path: every event delivery re-evaluates all outputs, integration
    uses the allocating {!Numerics.Ode.integrate}, and output shapes
    are validated at every call instead of only the first — the
    reference semantics the golden-equivalence tests compare against.
    Raises [Invalid_argument] on an invalid graph. *)

val add_probe : t -> name:string -> block:Dataflow.Graph.block_id -> port:int -> unit
(** Registers a recorder on a regular output port.  Must be called
    before {!run}; duplicate names raise [Invalid_argument]. *)

val run : ?t_end:float -> t -> unit
(** Advances the simulation until [t_end] (default [1.]).  May be
    called repeatedly with increasing horizons to continue a run.
    Events scheduled exactly at [t_end] are processed. *)

val reset : t -> unit
(** Returns the simulation to its initial state: block internal state
    reset, continuous states restored, queue re-primed with initial
    actions, probes and event log cleared. *)

val now : t -> float
(** Current simulation time. *)

val probe : t -> string -> Trace.t
(** The recorded trace of a probe.  Raises [Not_found] on unknown
    names. *)

val probe_component : t -> string -> int -> Control.Metrics.trace
(** Scalar component of a probe as a metric trace. *)

val event_log : t -> (float * string * int) list
(** Every delivered activation as [(time, block name, event input
    port)], in delivery order — the raw material for measuring the
    sampling and actuation instants of paper eqs. (1)–(2). *)

val activations : t -> block:Dataflow.Graph.block_id -> float list
(** Delivery times of all activations of one block, ascending. *)

val steps : t -> int
(** Number of event deliveries processed so far. *)

val rhs_evals : t -> int
(** Number of ODE right-hand-side evaluations since the last {!reset}
    (or {!create}), integration-observer calls excluded.  The debug
    and compiled paths make the same calls, so the counts agree. *)

val block_evals : t -> int
(** Number of block [outputs] calls since the last {!reset} (or
    {!create}), counted in both paths: the dirty-block evaluations of
    event instants, the right-hand side and the integration observer.
    The compiled path's incremental re-evaluation makes at most as many
    as the debug path's full sweeps.  Reading it changes nothing. *)

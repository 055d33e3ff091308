(** The adequation heuristic: map and schedule an algorithm graph onto
    an architecture graph, SynDEx style.

    A greedy list-scheduling heuristic in the spirit of
    Grandpierre–Sorel: at every step it considers the {e ready}
    operations (all predecessors scheduled), computes for each its
    best operator (minimising the earliest finish time including any
    needed inter-operator transfers), ranks candidates by {e schedule
    pressure} — earliest finish plus the remaining critical path to
    the end of the graph — and commits the most urgent one together
    with the communication slots its inputs require.

    Memory (delay) operations are placed on the operator of their
    producer after all regular operations; their values travel to
    remote consumers at the end of the iteration and are consumed at
    the start of the next one (see {!Schedule.t}).

    Conditioned operations (paper §3.2.2) are scheduled like
    unconditioned ones — every branch reserves its WCET window, a
    conservative choice documented in DESIGN.md; the runtime variation
    between branches is captured later by the execution simulator and
    the graph of delays.  An implicit width-1 dependency from the
    conditioning-variable source to every conditioned operation is
    added so the condition value is on-site before the branch is
    taken. *)

type strategy =
  | Pressure  (** schedule-pressure ranking (SynDEx-like, default) *)
  | Earliest_finish  (** rank ready operations by earliest finish
      time only (HEFT-like) — kept for the ablation benchmark *)

exception Infeasible of string
(** Raised when some operation has no operator able to run it, or a
    needed transfer has no medium. *)

val run :
  ?strategy:strategy ->
  ?pins:(string * string) list ->
  algorithm:Algorithm.t ->
  architecture:Architecture.t ->
  durations:Durations.t ->
  unit ->
  Schedule.t
(** Produces a valid schedule.  [pins] forces operations (by name)
    onto operators (by name) — the "manual exploration" side of
    SynDEx.  Raises {!Infeasible}, or [Invalid_argument] for malformed
    inputs or unknown pin names. *)

val route_table :
  Architecture.t ->
  Architecture.operator_id ->
  Architecture.operator_id ->
  (Architecture.medium_id * Architecture.operator_id) list list
(** [route_table arch] is the route lookup one {!run} prices its
    transfers with: {!Architecture.routes} memoised per (source,
    destination) pair, minus the {e dominated} routes — those taking
    two consecutive hops on the same medium, which also joins the hop
    before and the hop after directly.  The shortcut route has fewer
    hops, so it precedes the dominated one in the breadth-first order
    and arrives no later; dropping the dominated routes never changes
    the route [run] picks, only the time it takes to pick it. *)

val critical_path : algorithm:Algorithm.t -> architecture:Architecture.t -> durations:Durations.t -> float
(** Communication-free critical path length using operator-averaged
    WCETs — the lower bound the heuristic's pressure ranking is
    computed against (useful for reporting heuristic quality). *)

val refine :
  ?iterations:int ->
  ?seed:int ->
  ?temperature:float ->
  algorithm:Algorithm.t ->
  architecture:Architecture.t ->
  durations:Durations.t ->
  initial:Schedule.t ->
  unit ->
  Schedule.t
(** Local-search refinement of a mapping (SynDEx's manual exploration,
    automated): starting from [initial], repeatedly move one random
    operation to another operator able to run it, rebuild the list
    schedule under the new mapping and accept the move if the makespan
    improves — or, with simulated-annealing probability
    [exp(−Δ/(T·makespan))] where [T] is [temperature] (default 0.05),
    if it worsens.  Runs [iterations] proposals (default 200) and
    returns the best schedule found (never worse than [initial]).
    Deterministic for a given [seed]. *)

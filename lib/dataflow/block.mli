(** Scicos-style simulation blocks.

    A block mirrors a Scicos computational function: it has {e regular}
    input/output ports carrying vector-valued signals, {e event} input
    ports that activate it and {e event} output ports through which it
    activates others, an optional continuous state with a derivative
    callback, and arbitrary internal (discrete) state captured in its
    closures.

    Activation semantics, as in Scicos (and as exploited by the paper's
    methodology): a discrete block does nothing until an event arrives
    on one of its event inputs; when it does, the block reads its
    current inputs, updates its internal state, refreshes its outputs,
    and may emit events — in particular the "execution finished" event
    that drives the sequencing translation of SynDEx schedules
    (paper §3.2.1). *)

type action =
  | Emit of { port : int; delay : float }
      (** schedule an event on event-output [port] after [delay ≥ 0] *)
  | Self of { port : int; delay : float }
      (** re-activate this block's event-input [port] after
          [delay > 0] — how periodic clocks are built *)
  | Set_cstate of float array
      (** jump this block's own continuous state (applied immediately;
          length must equal the state dimension) — e.g. the velocity
          reversal of a bouncing ball at impact.  A crossing handler
          that re-initialises a monitored surface should restart it
          {e slightly off} zero (e.g. [1e-9]): a surface that starts a
          segment exactly at zero cannot re-fire until it has shown a
          nonzero sign at a sample point, so a fast re-crossing inside
          one integration sub-step would be missed. *)

type context = {
  mutable time : float;  (** current simulation time *)
  mutable inputs : float array array;  (** one vector per regular input port *)
  mutable cstate : float array;  (** this block's continuous state (may be [[||]]) *)
}
(** The fields are mutable so the simulation engine can reuse one
    context record (and its [inputs]/[cstate] arrays) per block across
    calls instead of allocating in its inner loop.  Consequences for
    block authors:
    - a callback must read what it needs {e during} the call; retaining
      [ctx], [ctx.inputs] or [ctx.cstate] for later use is invalid
      (their contents are overwritten before the next call);
    - [ctx.inputs.(p)] is the engine's own output row of the block
      wired to port [p]: read-only, never written and never retained;
    - [outputs] must be a pure function of [ctx], the block's internal
      state and its captured constants — the engine only re-evaluates a
      block when one of those may have changed (dirty-set propagation),
      so side effects or hidden call-count dependence in [outputs] are
      unsupported;
    - an [outputs] callback that depends on [ctx.time] must declare
      [always_active], otherwise the engine may serve a stale value
      recorded at an earlier instant. *)

(** {2 Abstract transfer metadata}

    Blocks optionally carry a sound {e abstract} counterpart of their
    concrete semantics, consumed by the whole-design value-flow
    analysis ({!Verify.Absint}).  The abstraction is per {e port}: one
    {!Interval.t} covers every element of a vector-valued port. *)

type transfer =
  | Opaque
      (** nothing is known; every output is {!Interval.top} (the sound
          default for black-box blocks — continuous plants, observers,
          user closures) *)
  | Static of Interval.t array
      (** outputs lie in these intervals at every instant, inputs and
          state notwithstanding (sources, relays) *)
  | Map of (Interval.t array -> Interval.t array)
      (** memoryless: an inclusion-monotone function from input-port
          intervals to output-port intervals covering the concrete
          outputs (gains, sums, saturations) *)
  | Update of {
      init : Interval.t array;
          (** output intervals before the first activation *)
      step : prev:Interval.t array -> Interval.t array -> Interval.t array;
          (** [step ~prev ins] covers the outputs after one activation,
              given that the current outputs lie in [prev] and the
              inputs in [ins]; must be inclusion-monotone in both *)
      tracks_input : bool;
          (** the held output is a copy of input port 0 (sample-holds,
              delays) — lets the analysis relate initial conditions to
              the stored signal *)
    }  (** event-driven blocks holding internal state *)

type guard =
  | Nonzero of int  (** input port that must never contain zero (divisors) *)
  | Nonnegative of int  (** input port that must stay ≥ 0 (sqrt) *)
  | Positive of int  (** input port that must stay > 0 (log) *)
(** Domain preconditions on regular input ports; violations produce
    infinities or NaN at run time and are reported by the FLOW rules. *)

type format =
  | Float32  (** IEEE-754 binary32 target storage *)
  | Q of { int_bits : int; frac_bits : int }
      (** signed fixed point: one sign bit, [int_bits] integer bits,
          [frac_bits] fractional bits — representable range
          [\[-2^int_bits, 2^int_bits - 2^-frac_bits\]] *)
(** Machine formats a target may impose on a signal (the AD/DA and
    quantized-synthesis word widths of the roadmap). *)

type machine = {
  format : format;
  tolerance : float option;
      (** stated bound on the acceptable quantization error *)
}

type t = {
  name : string;
  in_widths : int array;  (** regular input port widths *)
  out_widths : int array;  (** regular output port widths *)
  event_inputs : int;  (** number of event input ports *)
  event_outputs : int;  (** number of event output ports *)
  cstate0 : float array;  (** initial continuous state ([[||]] if none) *)
  feedthrough : bool;
      (** whether outputs depend directly on current inputs; used for
          algebraic-loop detection and output-evaluation ordering *)
  always_active : bool;
      (** outputs must be re-evaluated continuously (continuous and
          memoryless blocks), as opposed to held between events.  The
          stored outputs are only guaranteed fresh at accepted
          integration points and at event instants: inside the
          integrator's intermediate stages the engine re-evaluates only
          the always-active blocks some derivative reads *)
  outputs : context -> float array array;
      (** compute current outputs; must return [out_widths]-shaped data.
          The engine copies the returned rows into rows it owns before
          the block's next callback, so the result (the outer array and
          each row) may be a buffer the block reuses from call to call,
          or one of [ctx.inputs] *)
  derivatives : (context -> float array) option;
      (** time derivative of [cstate]; required iff [cstate0] is
          non-empty.  The engine reads the returned array before the
          block's next callback, so it may be a buffer the block reuses
          from call to call, or one of [ctx.inputs] *)
  on_event : (context -> port:int -> action list) option;
      (** event-input handler; required iff [event_inputs > 0] *)
  surfaces : int;
      (** number of zero-crossing surfaces this block monitors
          (state events, as in Scicos's zcross machinery) *)
  crossings : (context -> float array) option;
      (** surface values (length [surfaces]); the engine locates their
          sign changes during continuous integration.  Required iff
          [surfaces > 0]. *)
  on_crossing : (context -> surface:int -> rising:bool -> action list) option;
      (** called at a located crossing instant; [rising] is true for a
          −→+ sign change.  Required iff [surfaces > 0]. *)
  reset : unit -> unit;
      (** restore all internal state to its initial value, so a graph
          can be simulated repeatedly *)
  initial_actions : action list;
      (** actions applied at simulation start (e.g. a clock priming
          itself); [Self] delays are measured from the start time *)
  transfer : transfer;
      (** abstract counterpart of [outputs] for value-flow analysis *)
  guards : guard list;  (** input-domain preconditions *)
  clamp : (float * float) option;
      (** declared output saturation bounds (saturation blocks) *)
  machine : machine option;
      (** declared machine format of the outputs, if any *)
}

val validate : t -> unit
(** Checks internal consistency (derivative present iff continuous
    state, handler present iff event inputs, non-negative widths).
    Raises [Invalid_argument] with the block name otherwise. *)

val make :
  name:string ->
  ?in_widths:int array ->
  ?out_widths:int array ->
  ?event_inputs:int ->
  ?event_outputs:int ->
  ?cstate0:float array ->
  ?feedthrough:bool ->
  ?always_active:bool ->
  ?derivatives:(context -> float array) ->
  ?on_event:(context -> port:int -> action list) ->
  ?surfaces:int ->
  ?crossings:(context -> float array) ->
  ?on_crossing:(context -> surface:int -> rising:bool -> action list) ->
  ?reset:(unit -> unit) ->
  ?initial_actions:action list ->
  ?transfer:transfer ->
  ?guards:guard list ->
  ?clamp:float * float ->
  ?machine:machine ->
  (context -> float array array) ->
  t
(** Convenience constructor; the positional argument is [outputs].
    Defaults: no ports, no events, no continuous state, no surfaces,
    not feedthrough, not always active, [Opaque] transfer, no guards,
    no clamp, no machine format.  Runs {!validate}. *)

val with_format : ?tolerance:float -> format -> t -> t
(** Declares the machine format (and optionally a quantization-error
    tolerance) of a block's outputs — the annotation the FLOW002 and
    FLOW008 rules check inferred ranges against. *)

val format_range : format -> Interval.t
(** Representable range of a machine format. *)

val format_quantum : format -> Interval.t -> float
(** Worst-case round-to-nearest quantization error of values in the
    given interval when stored in the format: [2^-(frac_bits+1)] for
    fixed point, relative [2^-24] at the interval's largest magnitude
    for [Float32]; [+∞] when an unbounded interval meets a relative
    format. *)

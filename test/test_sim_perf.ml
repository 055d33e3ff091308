open Helpers
module G = Dataflow.Graph
module C = Dataflow.Clib
module E = Dataflow.Eventlib
module B = Dataflow.Block

(* The compiled hot path (precompiled wiring, engine-owned output rows,
   reusable contexts, dirty-set re-evaluation, in-place integration,
   pruned right-hand side) must be observationally *identical* to the straightforward
   interpretation that [Engine.create ~debug:true] preserves: same
   probe samples to the last bit, same event log, same step and
   right-hand-side counts, and no more [outputs] calls.  Every fixture
   below is built twice — once per mode — and the two runs are compared
   structurally ([compare ... = 0], so NaN samples compare equal). *)

(* ------------------------------------------------------------------ *)
(* golden-equivalence machinery *)

let check_same_trace name e_ref e_new =
  let tr_r = Sim.Engine.probe e_ref name and tr_n = Sim.Engine.probe e_new name in
  check_int (name ^ ": sample count") (Sim.Trace.length tr_r) (Sim.Trace.length tr_n);
  let times_r = Sim.Trace.times tr_r and times_n = Sim.Trace.times tr_n in
  let vals_r = Sim.Trace.values tr_r and vals_n = Sim.Trace.values tr_n in
  Array.iteri
    (fun i t ->
      if compare t times_n.(i) <> 0 then
        Alcotest.failf "%s: sample %d at t=%.17g (debug) vs t=%.17g (compiled)" name i t
          times_n.(i);
      if compare vals_r.(i) vals_n.(i) <> 0 then
        Alcotest.failf "%s: values differ at sample %d (t=%.17g)" name i t)
    times_r

(* [build ~debug] must construct a fresh graph + engine (blocks are
   stateful, so the two engines cannot share instances). *)
let check_golden ?(t_end = [ 1. ]) ~probes build =
  let run debug =
    let e = build ~debug in
    List.iter (fun t -> Sim.Engine.run ~t_end:t e) t_end;
    e
  in
  let e_ref = run true in
  let e_new = run false in
  check_true "event logs identical"
    (Sim.Engine.event_log e_ref = Sim.Engine.event_log e_new);
  check_int "step counts identical" (Sim.Engine.steps e_ref) (Sim.Engine.steps e_new);
  check_int "RHS evaluation counts identical" (Sim.Engine.rhs_evals e_ref)
    (Sim.Engine.rhs_evals e_new);
  let evals_r = Sim.Engine.block_evals e_ref and evals_n = Sim.Engine.block_evals e_new in
  if evals_n > evals_r then
    Alcotest.failf "compiled path made %d outputs calls, debug path %d" evals_n evals_r;
  check_true "final times identical"
    (compare (Sim.Engine.now e_ref) (Sim.Engine.now e_new) = 0);
  List.iter (fun name -> check_same_trace name e_ref e_new) probes

(* The compiled right-hand side evaluates only the always-active blocks
   the derivatives read.  [counted tally b] tallies [b]'s [outputs]
   calls under its name: a block kept in the right-hand side runs at
   least once per RHS call, a pruned one only at accepted steps and
   instants — several RHS calls apart under RKF45. *)
let counted tally (b : B.t) =
  let outputs ctx =
    let n = Option.value ~default:0 (Hashtbl.find_opt tally b.B.name) in
    Hashtbl.replace tally b.B.name (n + 1);
    b.B.outputs ctx
  in
  { b with B.outputs }

let count_with = function Some tally -> counted tally | None -> Fun.id

let check_pruning ~t_end ~kept ~pruned build =
  let tally = Hashtbl.create 8 in
  let e = build (Some tally) ~debug:false in
  Sim.Engine.run ~t_end e;
  let rhs = Sim.Engine.rhs_evals e in
  check_true "integrates" (rhs > 0);
  let calls name = Option.value ~default:0 (Hashtbl.find_opt tally name) in
  List.iter
    (fun name ->
      if calls name < rhs then
        Alcotest.failf "%s: %d evaluations for %d RHS calls, but a derivative reads it"
          name (calls name) rhs)
    kept;
  List.iter
    (fun name ->
      if calls name >= rhs then
        Alcotest.failf "%s: %d evaluations for %d RHS calls, but no derivative reads it"
          name (calls name) rhs)
    pruned

(* ------------------------------------------------------------------ *)
(* fixtures *)

(* event-dense: two incommensurate clocks, synchronization, divider,
   latch (NaN until the first event) and a discrete PID loop — the
   bench's sim_hot_loop_events diagram *)
let build_event_dense ~debug =
  let g = G.create () in
  let clock_fast = G.add g (E.clock ~period:0.01 ()) in
  let clock_slow = G.add g (E.clock ~period:0.013 ()) in
  let sync = G.add g (E.synchronization ~inputs:2 ()) in
  let div3 = G.add g (E.divider ~factor:3 ()) in
  let counter = G.add g (E.event_counter ()) in
  let latch = G.add g (E.event_latch_time ()) in
  let reference = G.add g (C.constant [| 1. |]) in
  let wave = G.add g (C.sine_source ~freq_hz:0.5 ()) in
  let sh_y = G.add g (C.sample_hold 1) in
  let pid =
    G.add g
      (C.pid
         (Control.Pid.create ~gains:{ Control.Pid.kp = 2.; ki = 1.; kd = 0. } ~ts:0.01 ()))
  in
  let sh_u = G.add g (C.sample_hold 1) in
  let delay = G.add g (C.unit_delay [| 0. |]) in
  G.connect_data g ~src:(wave, 0) ~dst:(sh_y, 0);
  G.connect_data g ~src:(reference, 0) ~dst:(pid, 0);
  G.connect_data g ~src:(sh_y, 0) ~dst:(pid, 1);
  G.connect_data g ~src:(pid, 0) ~dst:(sh_u, 0);
  G.connect_data g ~src:(sh_u, 0) ~dst:(delay, 0);
  G.connect_event g ~src:(clock_fast, 0) ~dst:(sync, 0);
  G.connect_event g ~src:(clock_slow, 0) ~dst:(sync, 1);
  G.connect_event g ~src:(sync, 0) ~dst:(div3, 0);
  G.connect_event g ~src:(div3, 0) ~dst:(counter, 0);
  G.connect_event g ~src:(sync, 0) ~dst:(latch, 0);
  List.iter
    (fun b -> G.connect_event g ~src:(clock_fast, 0) ~dst:(b, 0))
    [ sh_y; pid; sh_u ];
  G.connect_event g ~src:(clock_slow, 0) ~dst:(delay, 0);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"u" ~block:sh_u ~port:0;
  Sim.Engine.add_probe e ~name:"count" ~block:counter ~port:0;
  Sim.Engine.add_probe e ~name:"latch" ~block:latch ~port:0;
  e

(* ODE-dense: sampled PID on a continuous 2-state DC motor (RKF45).
   The plant's input is held, so no always-active block is in the
   right-hand side. *)
let build_ode_loop_with tally ~debug =
  let plant = Control.Plants.dc_motor Control.Plants.default_dc_motor in
  let ts = 0.05 in
  let g = G.create () in
  let p = G.add g (count_with tally (C.lti_continuous ~x0:[| 0.; 0. |] plant)) in
  let r = G.add g (C.constant [| 1. |]) in
  let sh = G.add g (C.sample_hold 1) in
  let pid =
    G.add g
      (C.pid (Control.Pid.create ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. } ~ts ()))
  in
  let hold = G.add g (C.sample_hold 1) in
  let clock = G.add g (E.clock ~period:ts ()) in
  G.connect_data g ~src:(p, 0) ~dst:(sh, 0);
  G.connect_data g ~src:(r, 0) ~dst:(pid, 0);
  G.connect_data g ~src:(sh, 0) ~dst:(pid, 1);
  G.connect_data g ~src:(pid, 0) ~dst:(hold, 0);
  G.connect_data g ~src:(hold, 0) ~dst:(p, 0);
  List.iter (fun b -> G.connect_event g ~src:(clock, 0) ~dst:(b, 0)) [ sh; pid; hold ];
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"y" ~block:p ~port:0;
  e

let build_ode_loop = build_ode_loop_with None

(* zero-crossing: the canonical bouncing ball *)
let bouncing_ball ~h0 ~restitution =
  let rest = ref false in
  B.make ~name:"ball" ~out_widths:[| 1 |] ~cstate0:[| h0; 0. |] ~always_active:true
    ~derivatives:(fun ctx -> if !rest then [| 0.; 0. |] else [| ctx.B.cstate.(1); -9.81 |])
    ~surfaces:1
    ~crossings:(fun ctx -> if !rest then [| 1. |] else [| ctx.B.cstate.(0) |])
    ~on_crossing:(fun ctx ~surface:_ ~rising ->
      if rising then []
      else begin
        let v = ctx.B.cstate.(1) in
        let v' = -.restitution *. v in
        if v' < 0.05 then begin
          rest := true;
          [ B.Set_cstate [| 0.; 0. |] ]
        end
        else [ B.Set_cstate [| 1e-9; v' |] ]
      end)
    ~reset:(fun () -> rest := false)
    (fun ctx -> [| [| ctx.B.cstate.(0) |] |])

let build_bouncing_ball ~debug =
  let g = G.create () in
  let ball = G.add g (bouncing_ball ~h0:1. ~restitution:0.8) in
  let counter = G.add g (E.event_counter ()) in
  let zc = G.add g (E.zero_cross ~direction:`Falling ()) in
  G.connect_data g ~src:(ball, 0) ~dst:(zc, 0);
  G.connect_event g ~src:(zc, 0) ~dst:(counter, 0);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"h" ~block:ball ~port:0;
  Sim.Engine.add_probe e ~name:"bounces" ~block:counter ~port:0;
  e

(* a time-dependent always-active source feeding the plant through an
   always-active feedthrough chain: every link is read by the
   derivative.  The plant's own output is read by no derivative. *)
let build_sine_chain tally ~debug =
  let count = count_with tally in
  let g = G.create () in
  let wave = G.add g (count (C.sine_source ~name:"wave" ~freq_hz:1.5 ())) in
  let gain = G.add g (count (C.gain ~name:"gain" 3.)) in
  let offset = G.add g (C.constant [| 0.5 |]) in
  let sum = G.add g (count (C.sum ~name:"sum" [| 1.; -1. |])) in
  let plant =
    G.add g
      (count
         (C.lti_continuous ~name:"plant" ~x0:[| 0.; 0. |]
            (Control.Plants.dc_motor Control.Plants.default_dc_motor)))
  in
  let sh = G.add g (C.sample_hold 1) in
  let clock = G.add g (E.clock ~period:0.1 ()) in
  G.connect_data g ~src:(wave, 0) ~dst:(gain, 0);
  G.connect_data g ~src:(gain, 0) ~dst:(sum, 0);
  G.connect_data g ~src:(offset, 0) ~dst:(sum, 1);
  G.connect_data g ~src:(sum, 0) ~dst:(plant, 0);
  G.connect_data g ~src:(plant, 0) ~dst:(sh, 0);
  G.connect_event g ~src:(clock, 0) ~dst:(sh, 0);
  let e = Sim.Engine.create ~max_step:0.05 ~debug g in
  Sim.Engine.add_probe e ~name:"y" ~block:plant ~port:0;
  Sim.Engine.add_probe e ~name:"sh" ~block:sh ~port:0;
  e

(* the state-feedback loop of [Design.state_feedback_loop]: the plant's
   split state outputs feed samplers and, outside the control law, a
   state mux that only a probe reads.  A sine disturbance enters the
   plant's second (split) input directly. *)
let build_sf_loop tally ~debug =
  let count = count_with tally in
  let module M = Numerics.Matrix in
  let sys =
    Control.Lti.make ~domain:Control.Lti.Continuous
      ~a:(M.of_arrays [| [| 0.; 1. |]; [| -4.; -0.8 |] |])
      ~b:(M.of_arrays [| [| 0.; 0. |]; [| 1.; 0.5 |] |])
      ~c:(M.identity 2) ~d:(M.zeros 2 2)
  in
  let g = G.create () in
  let plant =
    G.add g
      (count
         (C.lti_continuous ~name:"plant" ~split_inputs:true ~split_outputs:true
            ~x0:[| 1.; 0. |] sys))
  in
  let samplers =
    List.init 2 (fun i ->
        let s = G.add g (C.sample_hold ~name:(Printf.sprintf "sample_x%d" i) 1) in
        G.connect_data g ~src:(plant, i) ~dst:(s, 0);
        s)
  in
  let ctrl = G.add g (C.state_feedback (M.of_arrays [| [| 2.; 0.5 |] |])) in
  List.iteri (fun i s -> G.connect_data g ~src:(s, 0) ~dst:(ctrl, i)) samplers;
  let hold = G.add g (C.sample_hold ~name:"hold_u" 1) in
  G.connect_data g ~src:(ctrl, 0) ~dst:(hold, 0);
  G.connect_data g ~src:(hold, 0) ~dst:(plant, 0);
  let dist =
    G.add g (count (C.sine_source ~name:"disturbance" ~amplitude:0.3 ~freq_hz:2. ()))
  in
  G.connect_data g ~src:(dist, 0) ~dst:(plant, 1);
  let mux = G.add g (count (C.mux ~name:"state_probe" [| 1; 1 |])) in
  G.connect_data g ~src:(plant, 0) ~dst:(mux, 0);
  G.connect_data g ~src:(plant, 1) ~dst:(mux, 1);
  let clock = G.add g (E.clock ~period:0.05 ()) in
  List.iter
    (fun b -> G.connect_event g ~src:(clock, 0) ~dst:(b, 0))
    (samplers @ [ ctrl; hold ]);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"x" ~block:mux ~port:0;
  Sim.Engine.add_probe e ~name:"u" ~block:hold ~port:0;
  e

(* plant -> always-active gain -> integrator: here the plant's output
   IS read by a derivative, so plant and gain stay in the right-hand
   side; the sine behind the sample-hold and the integrator's own
   output do not *)
let build_plant_integrator tally ~debug =
  let count = count_with tally in
  let g = G.create () in
  let wave = G.add g (count (C.sine_source ~name:"wave" ~freq_hz:0.7 ())) in
  let sh = G.add g (C.sample_hold 1) in
  let plant =
    G.add g
      (count
         (C.lti_continuous ~name:"plant" ~x0:[| 0.; 0. |]
            (Control.Plants.dc_motor Control.Plants.default_dc_motor)))
  in
  let gain = G.add g (count (C.gain ~name:"gain" 0.5)) in
  let integ = G.add g (count (C.integrator ~name:"integrator" [| 0. |])) in
  let clock = G.add g (E.clock ~period:0.05 ()) in
  G.connect_data g ~src:(wave, 0) ~dst:(sh, 0);
  G.connect_data g ~src:(sh, 0) ~dst:(plant, 0);
  G.connect_data g ~src:(plant, 0) ~dst:(gain, 0);
  G.connect_data g ~src:(gain, 0) ~dst:(integ, 0);
  G.connect_event g ~src:(clock, 0) ~dst:(sh, 0);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"y" ~block:plant ~port:0;
  Sim.Engine.add_probe e ~name:"integral" ~block:integ ~port:0;
  e

(* surfaces behind a pruned block: the ball's derivative reads nothing,
   so the gain and the relay it drives are out of the right-hand side,
   yet the relay's crossings must still see the gain's fresh value *)
let build_ball_relay tally ~debug =
  let count = count_with tally in
  let g = G.create () in
  let ball = G.add g (count (bouncing_ball ~h0:1. ~restitution:0.8)) in
  let gain = G.add g (count (C.gain ~name:"gain" 2.)) in
  let relay =
    G.add g
      (count
         (C.relay ~name:"relay" ~on_above:1.2 ~off_below:0.4 ~out_on:1. ~out_off:0. ()))
  in
  let counter = G.add g (E.event_counter ()) in
  G.connect_data g ~src:(ball, 0) ~dst:(gain, 0);
  G.connect_data g ~src:(gain, 0) ~dst:(relay, 0);
  G.connect_event g ~src:(relay, 0) ~dst:(counter, 0);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"h" ~block:ball ~port:0;
  Sim.Engine.add_probe e ~name:"relay" ~block:relay ~port:0;
  Sim.Engine.add_probe e ~name:"toggles" ~block:counter ~port:0;
  e

(* drift regression: the output of a feedthrough block that is *not*
   always-active (the gain) drifts between events because its input is
   an integrator state.  The sampler must see the fresh value at each
   tick even though no event ever targets the gain. *)
let build_drift_chain ~debug =
  let g = G.create () in
  let src = G.add g (C.constant [| 1. |]) in
  let integ = G.add g (C.integrator [| 0. |]) in
  let gain = G.add g (C.gain 2.) in
  let sh = G.add g (C.sample_hold 1) in
  let clock = G.add g (E.clock ~period:0.25 ()) in
  G.connect_data g ~src:(src, 0) ~dst:(integ, 0);
  G.connect_data g ~src:(integ, 0) ~dst:(gain, 0);
  G.connect_data g ~src:(gain, 0) ~dst:(sh, 0);
  G.connect_event g ~src:(clock, 0) ~dst:(sh, 0);
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"held" ~block:sh ~port:0;
  e

(* randomised event graphs: parameters drawn by QCheck, diagram built
   deterministically from them (twice — once per engine mode).  [plant]
   adds a first-order plant: 0 none, 1 fed by the held sample (nothing
   always-active in the right-hand side), 2 fed by the sine through a
   gain (both in the right-hand side). *)
let build_random (p1, p2, factor, freq, fanout, plant) ~debug =
  let g = G.create () in
  let c1 = G.add g (E.clock ~period:p1 ()) in
  let c2 = G.add g (E.clock ~period:p2 ()) in
  let sync = G.add g (E.synchronization ~inputs:2 ()) in
  let div_ = G.add g (E.divider ~factor ()) in
  let counter = G.add g (E.event_counter ()) in
  let latch = G.add g (E.event_latch_time ()) in
  let wave = G.add g (C.sine_source ~freq_hz:freq ()) in
  let sh = G.add g (C.sample_hold 1) in
  let delay = G.add g (C.unit_delay [| 0. |]) in
  G.connect_data g ~src:(wave, 0) ~dst:(sh, 0);
  G.connect_data g ~src:(sh, 0) ~dst:(delay, 0);
  G.connect_event g ~src:(c1, 0) ~dst:(sync, 0);
  G.connect_event g ~src:(c2, 0) ~dst:(sync, 1);
  G.connect_event g ~src:(sync, 0) ~dst:(div_, 0);
  G.connect_event g ~src:(div_, 0) ~dst:(counter, 0);
  G.connect_event g ~src:((if fanout then sync else div_), 0) ~dst:(latch, 0);
  G.connect_event g ~src:(c1, 0) ~dst:(sh, 0);
  G.connect_event g ~src:(c2, 0) ~dst:(delay, 0);
  let y =
    if plant = 0 then None
    else begin
      let p =
        G.add g (C.lti_continuous ~x0:[| 0. |] (Control.Plants.first_order ~tau:0.2 ~gain:2.))
      in
      (if plant = 1 then G.connect_data g ~src:(sh, 0) ~dst:(p, 0)
       else begin
         let k = G.add g (C.gain 1.5) in
         G.connect_data g ~src:(wave, 0) ~dst:(k, 0);
         G.connect_data g ~src:(k, 0) ~dst:(p, 0)
       end);
      Some p
    end
  in
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"sh" ~block:sh ~port:0;
  Sim.Engine.add_probe e ~name:"count" ~block:counter ~port:0;
  Option.iter (fun p -> Sim.Engine.add_probe e ~name:"y" ~block:p ~port:0) y;
  e

let golden_tests =
  [
    test "event-dense diagram matches debug engine bit-for-bit" (fun () ->
        check_golden ~t_end:[ 10. ] ~probes:[ "u"; "count"; "latch" ] build_event_dense);
    test "sampled PID / DC-motor loop matches debug engine bit-for-bit" (fun () ->
        check_golden ~t_end:[ 5. ] ~probes:[ "y" ] build_ode_loop);
    test "continuation runs (two horizons) match debug engine" (fun () ->
        check_golden ~t_end:[ 2.; 4. ] ~probes:[ "y" ] build_ode_loop);
    test "bouncing ball (zero-crossings) matches debug engine bit-for-bit" (fun () ->
        check_golden ~t_end:[ 3. ] ~probes:[ "h"; "bounces" ] build_bouncing_ball);
    test "reset + rerun matches a fresh debug run" (fun () ->
        let e_new = build_event_dense ~debug:false in
        Sim.Engine.run ~t_end:3. e_new;
        Sim.Engine.reset e_new;
        Sim.Engine.run ~t_end:3. e_new;
        let e_ref = build_event_dense ~debug:true in
        Sim.Engine.run ~t_end:3. e_ref;
        check_true "event logs identical"
          (Sim.Engine.event_log e_ref = Sim.Engine.event_log e_new);
        List.iter
          (fun name -> check_same_trace name e_ref e_new)
          [ "u"; "count"; "latch" ]);
    test "drifting feedthrough chain is re-sampled correctly" (fun () ->
        check_golden ~t_end:[ 1. ] ~probes:[ "held" ] build_drift_chain;
        (* and the absolute values are right: x(t)=t, gain 2, tick 0.25 *)
        let e = build_drift_chain ~debug:false in
        Sim.Engine.run ~t_end:1. e;
        match Sim.Trace.last (Sim.Engine.probe e "held") with
        | Some (_, v) -> check_float ~eps:1e-6 "held = 2 t" 2. v.(0)
        | None -> Alcotest.fail "no samples");
    qtest "random event diagrams match debug engine bit-for-bit" ~count:30
      QCheck2.Gen.(
        tup6 (float_range 0.004 0.05) (float_range 0.004 0.05) (int_range 1 4)
          (float_range 0.1 2.) bool (int_range 0 2))
      (fun ((_, _, _, _, _, plant) as params) ->
        let probes = if plant = 0 then [ "sh"; "count" ] else [ "sh"; "count"; "y" ] in
        check_golden ~t_end:[ 0.5 ] ~probes (build_random params);
        true);
  ]

(* the pruned right-hand side: oracle equivalence plus which blocks it
   keeps *)
let pruning_tests =
  [
    test "PID / DC motor: nothing always-active in the RHS" (fun () ->
        check_golden ~t_end:[ 5. ] ~probes:[ "y" ] build_ode_loop;
        check_pruning ~t_end:5. ~kept:[] ~pruned:[ "plant" ] build_ode_loop_with);
    test "sine -> gain -> sum -> plant: the chain is kept" (fun () ->
        check_golden ~t_end:[ 3. ] ~probes:[ "y"; "sh" ] (build_sine_chain None);
        check_pruning ~t_end:3. ~kept:[ "wave"; "gain"; "sum" ] ~pruned:[ "plant" ]
          build_sine_chain);
    test "state-feedback loop: the probe-only state mux is pruned" (fun () ->
        check_golden ~t_end:[ 3. ] ~probes:[ "x"; "u" ] (build_sf_loop None);
        check_pruning ~t_end:3. ~kept:[ "disturbance" ] ~pruned:[ "state_probe"; "plant" ]
          build_sf_loop);
    test "plant -> gain -> integrator: the plant output is read" (fun () ->
        check_golden ~t_end:[ 3. ] ~probes:[ "y"; "integral" ] (build_plant_integrator None);
        check_pruning ~t_end:3. ~kept:[ "plant"; "gain" ] ~pruned:[ "wave"; "integrator" ]
          build_plant_integrator);
    test "bouncing ball -> gain -> relay: crossings see fresh outputs" (fun () ->
        check_golden ~t_end:[ 3. ] ~probes:[ "h"; "relay"; "toggles" ] (build_ball_relay None);
        check_pruning ~t_end:3. ~kept:[] ~pruned:[ "ball"; "gain"; "relay" ]
          build_ball_relay;
        let e = build_ball_relay None ~debug:false in
        Sim.Engine.run ~t_end:3. e;
        check_true "relay toggled"
          (match Sim.Trace.last (Sim.Engine.probe e "toggles") with
          | Some (_, v) -> v.(0) >= 2.
          | None -> false));
  ]

(* ------------------------------------------------------------------ *)
(* engine-owned output rows: a block may return a buffer it reuses *)

(* Outputs a = 2u + x and b (time-varying when always-active, the held
   input otherwise) on port 0, x - b on port 1.  With [reuse] it returns
   the same buffers at every call and also scribbles on them outside
   [outputs]: its derivative is written into port 1's buffer, and each
   event fills port 0's with NaN.  The engine copies returned rows, so
   neither may show in any output. *)
let rows_block ~reuse ~feedthrough ~always_active =
  let held = ref 0. in
  let row0 = [| 0.; 0. |] and row1 = [| 0. |] in
  let rows = [| row0; row1 |] in
  B.make ~name:"rows" ~in_widths:[| 1 |] ~out_widths:[| 2; 1 |] ~event_inputs:1
    ~cstate0:[| 0.5 |] ~feedthrough ~always_active
    ~derivatives:(fun ctx ->
      let d = ctx.B.inputs.(0).(0) -. ctx.B.cstate.(0) in
      if reuse then begin
        row1.(0) <- d;
        row1
      end
      else [| d |])
    ~on_event:(fun ctx ~port:_ ->
      held := ctx.B.inputs.(0).(0);
      if reuse then Array.fill row0 0 2 Float.nan;
      [])
    ~reset:(fun () -> held := 0.)
    (fun ctx ->
      let u = if feedthrough then ctx.B.inputs.(0).(0) else !held in
      let x = ctx.B.cstate.(0) in
      let a = (2. *. u) +. x in
      let b = if always_active then Float.sin (3. *. ctx.B.time) else !held in
      let c = x -. b in
      if reuse then begin
        row0.(0) <- a;
        row0.(1) <- b;
        row1.(0) <- c;
        rows
      end
      else [| [| a; b |]; [| c |] |])

(* sine -> plant -> rows; rows port 1 -> integrator; rows port 0 sampled *)
let build_rows ~reuse ~feedthrough ~always_active ~debug =
  let g = G.create () in
  let wave = G.add g (C.sine_source ~freq_hz:0.7 ()) in
  let plant =
    G.add g (C.lti_continuous ~x0:[| 0. |] (Control.Plants.first_order ~tau:0.3 ~gain:2.))
  in
  let rows = G.add g (rows_block ~reuse ~feedthrough ~always_active) in
  let integ = G.add g (C.integrator [| 0. |]) in
  let sh = G.add g (C.sample_hold 2) in
  let clock = G.add g (E.clock ~period:0.05 ()) in
  G.connect_data g ~src:(wave, 0) ~dst:(plant, 0);
  G.connect_data g ~src:(plant, 0) ~dst:(rows, 0);
  G.connect_data g ~src:(rows, 1) ~dst:(integ, 0);
  G.connect_data g ~src:(rows, 0) ~dst:(sh, 0);
  List.iter (fun b -> G.connect_event g ~src:(clock, 0) ~dst:(b, 0)) [ rows; sh ];
  let e = Sim.Engine.create ~debug g in
  Sim.Engine.add_probe e ~name:"rows0" ~block:rows ~port:0;
  Sim.Engine.add_probe e ~name:"rows1" ~block:rows ~port:1;
  Sim.Engine.add_probe e ~name:"integral" ~block:integ ~port:0;
  Sim.Engine.add_probe e ~name:"sh" ~block:sh ~port:0;
  e

let rows_probes = [ "rows0"; "rows1"; "integral"; "sh" ]

(* every sample of a trace, "%h"-rendered *)
let trace_text tr =
  let b = Buffer.create 4096 in
  Sim.Trace.iter
    (fun t v ->
      Buffer.add_string b (Printf.sprintf "%h:" t);
      Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) v;
      Buffer.add_char b ';')
    tr;
  Buffer.contents b

let rows_tests =
  List.concat_map
    (fun (feedthrough, always_active) ->
      let kind =
        Printf.sprintf "%s, %s"
          (if feedthrough then "feedthrough" else "not feedthrough")
          (if always_active then "always-active" else "event-held")
      in
      let run ~reuse ~debug =
        let e = build_rows ~reuse ~feedthrough ~always_active ~debug in
        Sim.Engine.run ~t_end:1. e;
        Sim.Engine.run ~t_end:2. e;
        e
      in
      [
        test (kind ^ ": a reused output buffer is as good as fresh rows") (fun () ->
            List.iter
              (fun debug ->
                let fresh = run ~reuse:false ~debug and reused = run ~reuse:true ~debug in
                check_true "event logs identical"
                  (Sim.Engine.event_log fresh = Sim.Engine.event_log reused);
                check_int "step counts identical" (Sim.Engine.steps fresh)
                  (Sim.Engine.steps reused);
                List.iter
                  (fun name ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s (debug %b)" name debug)
                      (trace_text (Sim.Engine.probe fresh name))
                      (trace_text (Sim.Engine.probe reused name)))
                  rows_probes)
              [ true; false ]);
        test (kind ^ ": reused buffers match the debug engine") (fun () ->
            check_golden ~t_end:[ 1.; 2. ] ~probes:rows_probes
              (build_rows ~reuse:true ~feedthrough ~always_active));
      ])
    [ (true, false); (false, true); (true, true); (false, false) ]

(* ------------------------------------------------------------------ *)
(* in-place integrator vs allocating integrator, directly *)

let vdp t x =
  ignore t;
  [| x.(1); (0.8 *. (1. -. (x.(0) *. x.(0))) *. x.(1)) -. x.(0) |]

let vdp_ip t x ~dx =
  ignore t;
  dx.(0) <- x.(1);
  dx.(1) <- (0.8 *. (1. -. (x.(0) *. x.(0))) *. x.(1)) -. x.(0)

let ode_tests =
  let check_method name meth =
    test (name ^ ": integrate_inplace is bit-for-bit integrate") (fun () ->
        let x0 = [| 2.; 0. |] in
        let obs_a = ref [] and obs_b = ref [] in
        let xa =
          Numerics.Ode.integrate ~meth
            ~observer:(fun t x -> obs_a := (t, Array.copy x) :: !obs_a)
            vdp ~t0:0. ~t1:2. x0
        in
        let xb = Array.copy x0 in
        let ws = Numerics.Ode.workspace 2 in
        Numerics.Ode.integrate_inplace ~meth
          ~observer:(fun t x -> obs_b := (t, Array.copy x) :: !obs_b)
          ~ws vdp_ip ~t0:0. ~t1:2. xb;
        check_true "final states identical" (compare xa xb = 0);
        check_true "observed trajectories identical" (compare !obs_a !obs_b = 0))
  in
  [
    check_method "euler" Numerics.Ode.Euler;
    check_method "rk2" Numerics.Ode.Rk2;
    check_method "rk4" Numerics.Ode.Rk4;
    check_method "rkf45" Numerics.Ode.default_method;
    test "workspace dimension is checked" (fun () ->
        let ws = Numerics.Ode.workspace 3 in
        check_int "dim" 3 (Numerics.Ode.workspace_dim ws);
        check_raises_invalid "mismatch" (fun () ->
            Numerics.Ode.integrate_inplace ~ws vdp_ip ~t0:0. ~t1:1. [| 1.; 0. |]));
  ]

(* ------------------------------------------------------------------ *)
(* steady-state allocation budget *)

let alloc_tests =
  [
    test "event loop allocates below budget per delivered event" (fun () ->
        let e = build_event_dense ~debug:false in
        (* warm up: first-eval validation, trace growth, queue sizing *)
        Sim.Engine.run ~t_end:10. e;
        let s0 = Sim.Engine.steps e in
        let w0 = Gc.minor_words () in
        Sim.Engine.run ~t_end:20. e;
        let dw = Gc.minor_words () -. w0 in
        let ds = Sim.Engine.steps e - s0 in
        check_true "progress" (ds > 500);
        let per_step = dw /. float_of_int ds in
        (* about 23 words: a delivered event costs the handler's action
           list and a handful of boxed floats.  Copying a probe row per
           recorded sample and consing an event-log tuple per delivery
           read about 32; the seed engine's full sweep was an order of
           magnitude above this bound *)
        if per_step > 28. then
          Alcotest.failf "%.1f minor words per event delivery (budget 28)" per_step);
    test "ODE path allocates below budget per sampling period" (fun () ->
        let e = build_ode_loop ~debug:false in
        Sim.Engine.run ~t_end:10. e;
        let r0 = Sim.Engine.rhs_evals e in
        let w0 = Gc.minor_words () in
        Sim.Engine.run ~t_end:20. e;
        let dw = Gc.minor_words () -. w0 in
        (* ts = 0.05 s *)
        let periods = 200. in
        check_true "integrates" (Sim.Engine.rhs_evals e - r0 > 1000);
        let per_period = dw /. periods in
        (* about 150 words: mostly the three sampled blocks'
           deliveries.  The RHS, the observer and the probes allocate
           nothing; an allocating plant output ([Lti.output]) and a
           copied probe row at each accepted step read about 300, an
           allocating [Lti.deriv] derivative adds about 160 more *)
        if per_period > 200. then
          Alcotest.failf "%.1f minor words per sampling period (budget 200)" per_period);
  ]

(* ------------------------------------------------------------------ *)
(* the stock continuous blocks' in-place derivatives *)

let deriv_of (b : B.t) = match b.B.derivatives with Some d -> d | None -> assert false

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_row a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let lti_tests =
  [
    qtest "lti_continuous derivative is Lti.deriv bit-for-bit" ~count:100
      QCheck2.Gen.(
        let* n = int_range 1 4 and* m = int_range 1 3 and* split = bool in
        let* a = array_size (return (n * n)) (float_range (-5.) 5.)
        and* b = array_size (return (n * m)) (float_range (-5.) 5.)
        and* xs = list_size (return 3) (array_size (return n) (float_range (-10.) 10.))
        and* us = list_size (return 3) (array_size (return m) (float_range (-10.) 10.)) in
        return (n, m, split, a, b, xs, us))
      (fun (n, m, split, a, b, xs, us) ->
        let module M = Numerics.Matrix in
        let sys =
          Control.Lti.make ~domain:Control.Lti.Continuous
            ~a:(M.init n n (fun i j -> a.((i * n) + j)))
            ~b:(M.init n m (fun i j -> b.((i * m) + j)))
            ~c:(M.identity n) ~d:(M.zeros n m)
        in
        let deriv =
          deriv_of (C.lti_continuous ~split_inputs:split ~x0:(Array.make n 0.) sys)
        in
        (* the block reuses its result buffer: every call is compared
           before the next one *)
        List.for_all2
          (fun x u ->
            let inputs = if split then Array.map (fun v -> [| v |]) u else [| u |] in
            let got = deriv { B.time = 0.; inputs; cstate = x } in
            let want = Control.Lti.deriv sys x u in
            Array.for_all2
              (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q))
              got want)
          xs us);
    qtest "lti_continuous outputs are Lti.output bit-for-bit" ~count:100
      QCheck2.Gen.(
        let* n = int_range 1 4 and* m = int_range 1 3 and* p = int_range 1 3 in
        let* split_in = bool and* split_out = bool in
        let* c = array_size (return (p * n)) (float_range (-5.) 5.)
        and* d = array_size (return (p * m)) (float_range (-5.) 5.)
        and* xs = list_size (return 3) (array_size (return n) (float_range (-10.) 10.))
        and* us = list_size (return 3) (array_size (return m) (float_range (-10.) 10.)) in
        return (n, m, p, split_in, split_out, c, d, xs, us))
      (fun (n, m, p, split_in, split_out, c, d, xs, us) ->
        let module M = Numerics.Matrix in
        let sys =
          Control.Lti.make ~domain:Control.Lti.Continuous ~a:(M.zeros n n) ~b:(M.zeros n m)
            ~c:(M.init p n (fun i j -> c.((i * n) + j)))
            ~d:(M.init p m (fun i j -> d.((i * m) + j)))
        in
        let b =
          C.lti_continuous ~split_inputs:split_in ~split_outputs:split_out
            ~x0:(Array.make n 0.) sys
        in
        (* the block reuses its rows: every call is compared before the
           next one *)
        List.for_all2
          (fun x u ->
            let inputs = if split_in then Array.map (fun v -> [| v |]) u else [| u |] in
            let rows = b.B.outputs { B.time = 0.; inputs; cstate = x } in
            let want = Control.Lti.output sys x u in
            if split_out then
              Array.length rows = p
              && Array.for_all2 (fun r w -> same_row r [| w |]) rows want
            else Array.length rows = 1 && same_row rows.(0) want)
          xs us);
    test "integrator derivative is its input" (fun () ->
        let u = [| 1.5; -2. |] in
        let ctx = { B.time = 0.; inputs = [| u |]; cstate = [| 3.; 4. |] } in
        let d = deriv_of (C.integrator [| 0.; 0. |]) ctx in
        check_true "the input itself, not a copy" (d == u));
  ]

(* ------------------------------------------------------------------ *)
(* event queue space behaviour (satellite: pop leak fix, clear) *)

let weak_live w =
  let live = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr live
  done;
  !live

let queue_space_tests =
  [
    test "pop does not retain churned payloads" (fun () ->
        let q = Sim.Event_queue.create () in
        let w = Weak.create 64 in
        (* a far-future sentinel keeps the queue non-empty throughout *)
        Sim.Event_queue.push q ~time:1e9 ~priority:0 [| -1. |];
        let fill () =
          for i = 0 to 63 do
            let payload = Array.make 3 (float_of_int i) in
            Weak.set w i (Some payload);
            Sim.Event_queue.push q ~time:(float_of_int i) ~priority:0 payload
          done
        in
        fill ();
        for _ = 1 to 64 do
          ignore (Sim.Event_queue.pop q)
        done;
        Gc.full_major ();
        check_int "popped payloads collected" 0 (weak_live w);
        check_int "sentinel still queued" 1 (Sim.Event_queue.length q));
    test "clear drops the backing array" (fun () ->
        let q = Sim.Event_queue.create () in
        let w = Weak.create 32 in
        let fill () =
          for i = 0 to 31 do
            let payload = Array.make 3 (float_of_int i) in
            Weak.set w i (Some payload);
            Sim.Event_queue.push q ~time:(float_of_int i) ~priority:0 payload
          done
        in
        fill ();
        Sim.Event_queue.clear q;
        Gc.full_major ();
        check_int "cleared payloads collected" 0 (weak_live w);
        check_true "queue empty" (Sim.Event_queue.is_empty q));
  ]

(* ------------------------------------------------------------------ *)
(* validation hoisting (satellite: shapes checked once, debug always) *)

(* returns the right shape twice, then a wrong width *)
let flaky_block () =
  let calls = ref 0 in
  B.make ~name:"flaky" ~out_widths:[| 1 |] ~event_inputs:1
    ~on_event:(fun _ ~port:_ -> [])
    ~reset:(fun () -> calls := 0)
    (fun _ ->
      incr calls;
      if !calls >= 3 then [| [| 9.; 9. |] |] else [| [| 1. |] |])

let build_flaky ~debug =
  let g = G.create () in
  let flaky = G.add g (flaky_block ()) in
  let clock = G.add g (E.clock ~period:0.1 ()) in
  G.connect_event g ~src:(clock, 0) ~dst:(flaky, 0);
  Sim.Engine.create ~debug g

let validation_tests =
  [
    test "debug mode validates output shapes at every call" (fun () ->
        let e = build_flaky ~debug:true in
        match Sim.Engine.run ~t_end:1. e with
        | exception Failure msg ->
            check_true "mentions the block" (Helpers.contains msg "flaky")
        | () -> Alcotest.fail "expected a width failure");
    test "compiled mode validates output shapes once" (fun () ->
        let e = build_flaky ~debug:false in
        (* the wrong-width call happens only on re-evaluation after the
           first validated one — the compiled engine trusts the block *)
        Sim.Engine.run ~t_end:1. e;
        check_true "ran to completion" (Sim.Engine.steps e > 5));
  ]

(* ------------------------------------------------------------------ *)
(* Session.cost digests on the serve and explore plants, recorded
   before the right-hand side was pruned: the costs of 8 seeds (MD5 of
   their "%h" renderings), the event deliveries and the RHS calls *)

let serve_document ~plant ~x0 ~kp ~ki ~kd ~ts ~horizon ~ecus ~budget =
  let ecus = List.init ecus (Printf.sprintf "ecu%d") in
  let architecture =
    String.concat " " (List.map (Printf.sprintf "(operator %s)") ecus)
    ^
    if List.length ecus > 1 then
      Printf.sprintf " (bus (name can) (latency 0.0005) (rate 0.0004) (connects %s))"
        (String.concat " " ecus)
    else ""
  in
  Printf.sprintf
    "(lifecycle\n\
    \  (design (name probe) (ts %g) (horizon %g) (cost iae y 0 1.0))\n\
    \  (diagram\n\
    \    (block (name plant) (type lti) %s (x0 %s))\n\
    \    (block (name reference) (type const) (value 1))\n\
    \    (block (name sample_y) (type sample-hold) (width 1))\n\
    \    (block (name pid) (type pid) (kp %.5f) (ki %.5f) (kd %.5f) (ts %g))\n\
    \    (block (name hold_u) (type sample-hold) (width 1))\n\
    \    (link plant 0 sample_y 0) (link reference 0 pid 0) (link sample_y 0 pid 1)\n\
    \    (link pid 0 hold_u 0) (link hold_u 0 plant 0)\n\
    \    (members reference sample_y pid hold_u)\n\
    \    (clocked sample_y pid hold_u)\n\
    \    (probe y plant 0) (probe u hold_u 0))\n\
    \  (architecture (name platform) %s)\n\
    \  (durations (wcet reference * %.6f) (wcet sample_y ecu0 %.6f)\n\
    \             (wcet pid * %.6f) (wcet hold_u ecu0 %.6f))\n\
    \  (pins (pin sample_y ecu0) (pin hold_u ecu0)))\n"
    ts horizon plant x0 kp ki kd ts architecture (0.05 *. budget) (0.25 *. budget)
    (0.5 *. budget) (0.2 *. budget)

let serve_session src =
  let f = Lifecycle.Diagram.parse src in
  let implementation =
    Lifecycle.Methodology.implement ~pins:f.Lifecycle.Diagram.pins
      ~design:f.Lifecycle.Diagram.design ~architecture:f.Lifecycle.Diagram.architecture
      ~durations:f.Lifecycle.Diagram.durations ()
  in
  Lifecycle.Session.create ~design:f.Lifecycle.Diagram.design ~implementation ()

(* a screening candidate of the explore sweep: dc-motor PID on two
   processors over a bus, WCETs at 0.55 of the budget *)
let explore_session () =
  let design =
    Lifecycle.Design.pid_loop ~name:"sweep"
      ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
      ~x0:[| 0.; 0. |]
      ~gains:{ Control.Pid.kp = 66.; ki = 88.; kd = 0. }
      ~ts:0.04 ~reference:1. ~horizon:0.5 ()
  in
  let durations = Aaa.Durations.create () in
  List.iter
    (fun (op, share) ->
      let w = share *. 0.55 *. 1.4 *. 0.05 /. 1.6 in
      List.iter
        (fun operator ->
          Aaa.Durations.set durations ~op ~operator w;
          Aaa.Durations.set_bcet durations ~op ~operator (0.4 *. w))
        [ "P0"; "P1" ])
    [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ];
  let architecture =
    Aaa.Architecture.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1" ]
  in
  let implementation = Lifecycle.Methodology.implement ~design ~architecture ~durations () in
  Lifecycle.Session.create ~design ~implementation ()

let session_cases =
  [
    ( "dc-motor, 3 ECUs",
      (fun () ->
        serve_session
          (serve_document ~plant:"(plant dc-motor)" ~x0:"0 0" ~kp:60. ~ki:80. ~kd:0.
             ~ts:0.04 ~horizon:4. ~ecus:3 ~budget:0.012)),
      ("cd3414814ae5bbf62c4a6a04e60a1e6b", 15304, 86538) );
    ( "first-order, 2 ECUs",
      (fun () ->
        serve_session
          (serve_document ~plant:"(plant first-order 0.5 2)" ~x0:"0" ~kp:0.75 ~ki:1.5
             ~kd:0. ~ts:0.05 ~horizon:3. ~ecus:2 ~budget:0.015)),
      ("e6303005166ba60a26143a3eda918078", 9224, 51840) );
    ( "mass-spring-damper, 1 ECU",
      (fun () ->
        serve_session
          (serve_document ~plant:"(plant mass-spring-damper 1 4 0.8)" ~x0:"0 0" ~kp:6.
             ~ki:5. ~kd:0.4 ~ts:0.025 ~horizon:2. ~ecus:1 ~budget:0.008)),
      ("7a55e8e50b7db00204858e3680a5e45c", 6440, 57648) );
    ( "explore screening candidate",
      explore_session,
      ("48a2b5c6b5939f12ee1c624b05d74853", 2024, 11322) );
  ]

let session_tests =
  List.map
    (fun (name, create, (digest, steps, rhs)) ->
      test (name ^ ": Session.cost digest unchanged") (fun () ->
          let s = create () in
          let costs = ref [] and n_steps = ref 0 and n_rhs = ref 0 in
          for seed = 1000 to 1007 do
            costs := Printf.sprintf "%h" (Lifecycle.Session.cost s ~seed) :: !costs;
            let e = Lifecycle.Session.engine s in
            n_steps := !n_steps + Sim.Engine.steps e;
            n_rhs := !n_rhs + Sim.Engine.rhs_evals e
          done;
          Alcotest.(check string) "cost digest" digest
            (Digest.to_hex (Digest.string (String.concat ";" (List.rev !costs))));
          check_int "event deliveries" steps !n_steps;
          check_int "RHS evaluations" rhs !n_rhs))
    session_cases

(* the serve DC-motor/3-ECU document keeps nothing it records per
   accepted step or per delivery past a minor collection *)
let promotion_tests =
  [
    test "Session.cost promotes below budget (dc-motor, 3 ECUs)" (fun () ->
        let _, create, _ = List.hd session_cases in
        let s = create () in
        (* warm up: first-eval validation, trace chunks, log and queue
           sizing *)
        for seed = 0 to 7 do
          ignore (Lifecycle.Session.cost s ~seed)
        done;
        let costs = 32 in
        let p0 = (Gc.quick_stat ()).Gc.promoted_words in
        for seed = 100 to 100 + costs - 1 do
          ignore (Lifecycle.Session.cost s ~seed)
        done;
        let per_cost = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int costs in
        (* about 70 words.  A copied probe row per accepted step and an
           event-log tuple per delivery, both retained until the next
           reset, promoted about 14 000 *)
        if per_cost > 1000. then
          Alcotest.failf "%.0f words promoted per Session.cost (budget 1000)" per_cost);
  ]

(* ------------------------------------------------------------------ *)
(* flat traces against a list model *)

(* [model] holds the expected samples, newest first.  Rows handed out
   by the trace are scribbled on after they are compared: the trace must
   not share them. *)
let trace_matches tr model =
  let expected = Array.of_list (List.rev model) in
  let n = Array.length expected in
  let w = Sim.Trace.width tr in
  let ok_values () =
    let values = Sim.Trace.values tr in
    let ok =
      Array.length values = n
      && Array.for_all2 (fun (_, r) v -> same_row r v) expected values
    in
    Array.iter (fun v -> Array.fill v 0 (Array.length v) Float.nan) values;
    ok
  in
  let ok_last () =
    match (Sim.Trace.last tr, model) with
    | None, [] -> true
    | Some (t, v), (t', r) :: _ ->
        let ok = same_bits t t' && same_row v r in
        Array.fill v 0 (Array.length v) Float.nan;
        ok
    | _ -> false
  in
  let ok_iter () =
    let i = ref 0 and ok = ref true in
    Sim.Trace.iter
      (fun t v ->
        (ok :=
           !ok && !i < n
           &&
           let t', r = expected.(!i) in
           same_bits t t' && same_row v r);
        Array.fill v 0 (Array.length v) Float.nan;
        incr i)
      tr;
    !ok && !i = n
  in
  let ok_component j =
    let c = Sim.Trace.component tr j in
    Array.length c.Control.Metrics.values = n
    && Array.for_all2 (fun (_, r) x -> same_bits r.(j) x) expected c.Control.Metrics.values
  in
  Sim.Trace.length tr = n
  && Array.for_all2 (fun (t, _) t' -> same_bits t t') expected (Sim.Trace.times tr)
  && ok_values () && ok_last () && ok_iter ()
  && List.for_all ok_component (List.init w Fun.id)
  (* once more, after the handed-out rows were scribbled on *)
  && ok_values () && ok_last ()

let trace_ops_gen =
  QCheck2.Gen.(
    let* w = int_range 1 3 and* n = int_range 0 3000 in
    let op =
      let* k = int_range 0 1999 and* row = array_size (return w) (float_range (-1e3) 1e3) in
      return (if k = 0 then `Clear else if k < 300 then `Repeat row else `Next row)
    in
    let* ops = list_size (return n) op in
    return (w, ops))

let run_trace_model (w, ops) =
  let tr = Sim.Trace.create ~width:w in
  let model = ref [] and clock = ref 0. and ok = ref true in
  List.iter
    (fun op ->
      match (op, !model) with
      | `Clear, _ ->
          ok := !ok && trace_matches tr !model;
          Sim.Trace.clear tr;
          model := []
      | `Repeat row, (t, _) :: rest ->
          let src = Array.copy row in
          Sim.Trace.record tr t src;
          Array.fill src 0 w Float.nan;
          model := (t, row) :: rest
      | (`Repeat row | `Next row), _ ->
          clock := !clock +. 0.125;
          let src = Array.copy row in
          Sim.Trace.record tr !clock src;
          Array.fill src 0 w Float.nan;
          model := (!clock, row) :: !model)
    ops;
  !ok && trace_matches tr !model

let trace_tests =
  [
    qtest "flat trace matches a list model across chunks, repeats and clears" ~count:25
      trace_ops_gen run_trace_model;
    test "clear keeps no sample and the trace is reusable" (fun () ->
        let row i = [| float_of_int i; -.float_of_int i |] in
        let tr = Sim.Trace.create ~width:2 in
        for i = 0 to 2500 do
          Sim.Trace.record tr (float_of_int i) (row i)
        done;
        Sim.Trace.clear tr;
        check_int "empty" 0 (Sim.Trace.length tr);
        check_true "no last sample" (Sim.Trace.last tr = None);
        for i = 0 to 1500 do
          Sim.Trace.record tr (float_of_int (2 * i)) (row (i + 7))
        done;
        check_true "reused"
          (trace_matches tr
             (List.rev (List.init 1501 (fun i -> (float_of_int (2 * i), row (i + 7)))))));
  ]

(* ------------------------------------------------------------------ *)
(* the flat event log *)

(* two incommensurate clocks, their synchronization and a counter:
   about 950 deliveries per simulated second *)
let build_log_fixture () =
  let g = G.create () in
  let c1 = G.add g (E.clock ~period:0.003 ()) in
  let c2 = G.add g (E.clock ~period:0.007 ()) in
  let sync = G.add g (E.synchronization ~inputs:2 ()) in
  let counter = G.add g (E.event_counter ()) in
  G.connect_event g ~src:(c1, 0) ~dst:(sync, 0);
  G.connect_event g ~src:(c2, 0) ~dst:(sync, 1);
  G.connect_event g ~src:(sync, 0) ~dst:(counter, 0);
  (Sim.Engine.create g, [ c1; c2; sync; counter ])

let event_log_tests =
  [
    test "split runs log what one run logs, across reset" (fun () ->
        let one, ids = build_log_fixture () in
        Sim.Engine.run ~t_end:1. one;
        let split, _ = build_log_fixture () in
        Sim.Engine.run ~t_end:0.37 split;
        Sim.Engine.run ~t_end:1. split;
        check_true "grows far past its initial capacity" (Sim.Engine.steps one > 900);
        let same_as_one e =
          Sim.Engine.event_log e = Sim.Engine.event_log one
          && List.for_all
               (fun block ->
                 Sim.Engine.activations e ~block = Sim.Engine.activations one ~block)
               ids
        in
        check_true "split run logs the same deliveries" (same_as_one split);
        check_int "log length is the step count" (Sim.Engine.steps one)
          (List.length (Sim.Engine.event_log one));
        check_true "activations ascending"
          (List.for_all
             (fun block ->
               let ts = Sim.Engine.activations one ~block in
               List.sort compare ts = ts && ts <> [])
             ids);
        Sim.Engine.reset split;
        check_true "empty log after reset" (Sim.Engine.event_log split = []);
        check_true "no activations after reset"
          (List.for_all (fun block -> Sim.Engine.activations split ~block = []) ids);
        check_int "no outputs calls after reset" 0 (Sim.Engine.block_evals split);
        Sim.Engine.run ~t_end:1. split;
        check_true "rerun logs the same deliveries" (same_as_one split);
        check_int "rerun makes the same outputs calls" (Sim.Engine.block_evals one)
          (Sim.Engine.block_evals split));
  ]

let suites =
  [
    ("sim_perf.golden", golden_tests);
    ("sim_perf.pruning", pruning_tests);
    ("sim_perf.ode_inplace", ode_tests);
    ("sim_perf.rows", rows_tests);
    ("sim_perf.alloc", alloc_tests @ promotion_tests);
    ("sim_perf.lti", lti_tests);
    ("sim_perf.session", session_tests);
    ("sim_perf.trace", trace_tests);
    ("sim_perf.event_log", event_log_tests);
    ("sim_perf.queue_space", queue_space_tests);
    ("sim_perf.validation", validation_tests);
  ]

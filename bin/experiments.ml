(* Experiment runner: regenerates the data behind every figure of the
   paper (the figures are conceptual diagrams; each experiment turns
   one into a measured table) plus the quantitative experiments the
   methodology motivates.  See EXPERIMENTS.md for the recorded
   results.

   Usage:  dune exec bin/experiments.exe -- <experiment|all>        *)

module M = Numerics.Matrix
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module TM = Translator.Temporal_model

let header title =
  Printf.printf "\n================ %s ================\n" title

(* ------------------------------------------------------------------ *)
(* Shared DC-motor PID setup *)

(* Default gains give a snappy loop whose bandwidth approaches the
   Nyquist rate — the regime where I/O latency visibly matters (cf.
   Cervin et al. 2003).  [aggressive] pushes further to exhibit the
   latency-induced instability crossover. *)
let snappy_gains = { Control.Pid.kp = 60.; ki = 80.; kd = 0. }
let aggressive_gains = { Control.Pid.kp = 100.; ki = 150.; kd = 0. }

let dc_design ?(horizon = 10.) ?(gains = snappy_gains) () =
  Lifecycle.Design.pid_loop ~name:"dc_motor"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |] ~gains ~ts:0.05 ~reference:1. ~horizon ()

(* WCETs scaled so that the static I/O latency is [frac]·Ts on one
   processor: fractions of the period per operation *)
let dc_durations ?(operators = [ "P0" ]) ~frac () =
  let ts = 0.05 in
  let d = Dur.create () in
  let set op share =
    List.iter
      (fun operator ->
        Dur.set d ~op ~operator (share *. frac *. ts);
        Dur.set_bcet d ~op ~operator (0.4 *. share *. frac *. ts))
      operators
  in
  set "reference" 0.05;
  set "sample_y" 0.2;
  set "pid" 0.6;
  set "hold_u" 0.15;
  d

let dc_two_proc () = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1" ]

(* ------------------------------------------------------------------ *)
(* fig1: implementation effect on the timing of I/O operations *)

let fig1 () =
  header "fig1: sampling/actuation latencies Ls_j(k), La_j(k)";
  let design = dc_design () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(dc_two_proc ()) ~durations ()
  in
  let trace =
    Lifecycle.Methodology.execute
      ~config:
        {
          Exec.Machine.default_config with
          iterations = 200;
          law = Exec.Timing_law.Uniform;
          durations = Some durations;
        }
      design impl
  in
  let ls = List.hd (Exec.Machine.sampling_latencies trace) in
  let la = List.hd (Exec.Machine.actuation_latencies trace) in
  Printf.printf "%4s %12s %12s   (Ts = %g s, first 15 of %d iterations)\n" "k" "Ls(k)"
    "La(k)" trace.Exec.Machine.period trace.Exec.Machine.iterations;
  for k = 0 to 14 do
    Printf.printf "%4d %12.6f %12.6f\n" k (snd ls).(k) (snd la).(k)
  done;
  let stat name arr =
    Printf.printf "%s: %s\n" name (Numerics.Stats.summary arr)
  in
  stat "Ls" (snd ls);
  stat "La" (snd la);
  Printf.printf "static (WCET) model: Ls = %g, La = %g\n"
    (snd (List.hd (TM.of_schedule impl.Lifecycle.Methodology.schedule).TM.sampling_offsets))
    (snd (List.hd (TM.of_schedule impl.Lifecycle.Methodology.schedule).TM.actuation_offsets))

(* ------------------------------------------------------------------ *)
(* fig2: plant and controller interconnection (stroboscopic model) *)

let fig2 () =
  header "fig2: ideal (stroboscopic) closed-loop simulation";
  let design = dc_design () in
  let e = Lifecycle.Methodology.simulate_ideal design in
  let y = Sim.Engine.probe_component e "y" 0 in
  Printf.printf "t (s)    y(t)\n";
  List.iter
    (fun t_target ->
      (* nearest recorded sample *)
      let best = ref (Float.neg_infinity, Float.nan) in
      Array.iteri
        (fun i t ->
          if Float.abs (t -. t_target) < Float.abs (fst !best -. t_target) then
            best := (t, y.Control.Metrics.values.(i)))
        y.Control.Metrics.times;
      Printf.printf "%-8.2f %.5f\n" (fst !best) (snd !best))
    [ 0.; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ];
  Printf.printf "IAE = %.5f, overshoot = %.1f %%, sse = %.5f\n"
    (Control.Metrics.iae ~reference:1. y)
    (100. *. Control.Metrics.overshoot ~reference:1. y)
    (Control.Metrics.steady_state_error ~reference:1. y)

(* ------------------------------------------------------------------ *)
(* fig3: plant + controller + graph of delays *)

let fig3 () =
  header "fig3: co-simulation with the generated graph of delays";
  let design = dc_design () in
  List.iter
    (fun frac ->
      let durations = dc_durations ~frac () in
      let c =
        Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ()) ~durations ()
      in
      Printf.printf
        "latency %.0f %% of Ts: ideal IAE = %.5f, implemented IAE = %.5f (%+.2f %%)\n"
        (frac *. 100.) c.Lifecycle.Methodology.ideal_cost
        c.Lifecycle.Methodology.implemented_cost c.Lifecycle.Methodology.degradation_pct)
    [ 0.2; 0.5; 0.9 ]

(* ------------------------------------------------------------------ *)
(* fig4: sequencing translation *)

let fig4 () =
  header "fig4: sequencing — Event Delay chain reproduces the schedule";
  let design = dc_design () in
  let durations = dc_durations ~frac:0.6 () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ()) ~durations ()
  in
  let built = design.Lifecycle.Design.build () in
  let _ =
    Translator.Cosim.attach_delay_graph ~graph:built.Lifecycle.Design.graph
      ~schedule:impl.Lifecycle.Methodology.schedule
      ~binding:impl.Lifecycle.Methodology.binding ()
  in
  let e = Sim.Engine.create built.Lifecycle.Design.graph in
  Sim.Engine.run ~t_end:0.049 e;
  Printf.printf "%-12s %-22s %-22s\n" "operation" "scheduled completion" "measured event time";
  List.iter
    (fun op ->
      let slot = Sched.slot_of impl.Lifecycle.Methodology.schedule op in
      let static = slot.Sched.cs_start +. slot.Sched.cs_duration in
      let block =
        Translator.Scicos_to_syndex.block_of_op impl.Lifecycle.Methodology.binding op
      in
      let measured =
        match Sim.Engine.activations e ~block with
        | [ t ] -> Printf.sprintf "%.6f" t
        | [] -> "(not event-activated)"
        | l -> Printf.sprintf "%d events" (List.length l)
      in
      Printf.printf "%-12s %-22.6f %-22s\n"
        (Alg.op_name impl.Lifecycle.Methodology.algorithm op)
        static measured)
    (Alg.ops impl.Lifecycle.Methodology.algorithm)

(* ------------------------------------------------------------------ *)
(* conditioned_loop: mode source, cheap/expensive conditioned branches,
   merge, actuator — shared by fig5 and the lint audit *)

let cond_mode_period = 0.5

let conditioned_design () =
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let mode_period = cond_mode_period in
  let build () =
    let g = G.create () in
    let plant = G.add g (C.lti_continuous ~name:"plant" ~x0:[| 0. |]
                           (Control.Plants.first_order ~tau:0.4 ~gain:1.)) in
    let sampler = G.add g (C.sample_hold ~name:"sample_y" 1) in
    G.connect_data g ~src:(plant, 0) ~dst:(sampler, 0);
    (* mode flips with simulation time *)
    let mode_state = ref 0. in
    let mode =
      G.add g
        (Dataflow.Block.make ~name:"mode" ~out_widths:[| 1 |] ~event_inputs:1
           ~on_event:(fun ctx ~port:_ ->
             mode_state :=
               (if Float.rem ctx.Dataflow.Block.time (2. *. mode_period) < mode_period then 0.
                else 1.);
             [])
           ~reset:(fun () -> mode_state := 0.)
           (fun _ -> [| [| !mode_state |] |]))
    in
    let branch name =
      let held = ref 0. in
      G.add g
        (Dataflow.Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~event_inputs:1
           ~on_event:(fun ctx ~port:_ ->
             held := 2. *. (1. -. ctx.Dataflow.Block.inputs.(0).(0));
             [])
           ~reset:(fun () -> held := 0.)
           (fun _ -> [| [| !held |] |]))
    in
    let cheap = branch "cheap" in
    let costly = branch "costly" in
    G.connect_data g ~src:(sampler, 0) ~dst:(cheap, 0);
    G.connect_data g ~src:(sampler, 0) ~dst:(costly, 0);
    let merge =
      let held = ref 0. in
      G.add g
        (Dataflow.Block.make ~name:"merge" ~in_widths:[| 1; 1; 1 |] ~out_widths:[| 1 |]
           ~event_inputs:1
           ~on_event:(fun ctx ~port:_ ->
             held :=
               (if ctx.Dataflow.Block.inputs.(0).(0) >= 0.5 then
                  ctx.Dataflow.Block.inputs.(2).(0)
                else ctx.Dataflow.Block.inputs.(1).(0));
             [])
           ~reset:(fun () -> held := 0.)
           (fun _ -> [| [| !held |] |]))
    in
    G.connect_data g ~src:(mode, 0) ~dst:(merge, 0);
    G.connect_data g ~src:(cheap, 0) ~dst:(merge, 1);
    G.connect_data g ~src:(costly, 0) ~dst:(merge, 2);
    let hold = G.add g (C.sample_hold ~name:"hold_u" 1) in
    G.connect_data g ~src:(merge, 0) ~dst:(hold, 0);
    G.connect_data g ~src:(hold, 0) ~dst:(plant, 0);
    {
      Lifecycle.Design.graph = g;
      clocked = [ sampler; mode; cheap; costly; merge; hold ];
      members = [ sampler; mode; cheap; costly; merge; hold ];
      memories = [];
      probes = [ ("y", (plant, 0)) ];
      condition_feed = Some (fun _ -> (mode, 0));
      customize_algorithm =
        Some
          (fun algorithm binding ->
            Translator.Scicos_to_syndex.declare_condition binding ~algorithm ~var:"mode"
              ~source:(mode, 0)
              ~ops:[ (cheap, 0); (costly, 1) ]);
    }
  in
  let design =
    Lifecycle.Design.make ~name:"conditioned_loop" ~ts:0.05 ~horizon:4.
      ~condition_runtime:(fun ~iteration ~var:_ ->
        if Float.rem (float_of_int iteration *. 0.05) (2. *. mode_period) < mode_period then 0
        else 1)
      ~cost:(fun e -> Control.Metrics.iae ~reference:1. (Sim.Engine.probe_component e "y" 0))
      build
  in
  let d = Dur.create () in
  let set op wcet = Dur.set d ~op ~operator:"P0" wcet in
  set "sample_y" 0.002;
  set "mode" 0.001;
  set "cheap" 0.002;
  set "costly" 0.030;
  set "merge" 0.001;
  set "hold_u" 0.002;
  (design, d)

(* ------------------------------------------------------------------ *)
(* fig5: conditioning translation *)

let fig5 () =
  header "fig5: conditioning — branch-dependent latency via Event Select";
  let design, d = conditioned_design () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ()) ~durations:d ()
  in
  let e = Lifecycle.Methodology.simulate_implemented design impl in
  let built = design.Lifecycle.Design.build () in
  let hold_block = List.nth built.Lifecycle.Design.clocked 5 in
  let la = Translator.Cosim.measured_latencies e ~block:hold_block ~period:0.05 in
  Printf.printf "actuation latency per iteration (mode flips every %.1f s):\n"
    cond_mode_period;
  Printf.printf "%4s %10s\n" "k" "La(k)";
  Array.iteri (fun k l -> if k < 24 then Printf.printf "%4d %10.4f\n" k l) la;
  Printf.printf "two latency levels = two conditional branches: %s\n"
    (Numerics.Stats.summary la)

(* ------------------------------------------------------------------ *)
(* sync: the Synchronization block construction *)

let sync () =
  header "sync: inter-processor synchronisation preserves the total order";
  let design = dc_design () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () in
  (* force the pid away from the sensor's processor *)
  let impl =
    Lifecycle.Methodology.implement
      ~pins:[ ("sample_y", "P0"); ("pid", "P1"); ("hold_u", "P0") ]
      ~design ~architecture:(dc_two_proc ()) ~durations ()
  in
  Printf.printf "%s\n" (Aaa.Gantt.render impl.Lifecycle.Methodology.schedule);
  let e = Lifecycle.Methodology.simulate_implemented design impl in
  let built = design.Lifecycle.Design.build () in
  let pid_block = List.nth built.Lifecycle.Design.clocked 1 in
  let inst = Translator.Cosim.measured_instants e ~block:pid_block in
  let op_pid = Option.get (Alg.find_op impl.Lifecycle.Methodology.algorithm "pid") in
  let slot = Sched.slot_of impl.Lifecycle.Methodology.schedule op_pid in
  Printf.printf "pid slot completion (static): %.6f; first co-simulated activations:"
    (slot.Sched.cs_start +. slot.Sched.cs_duration);
  Array.iteri (fun i t -> if i < 3 then Printf.printf " %.6f" t) inst;
  Printf.printf "\n";
  (* robustness: executive under strong jitter *)
  let trace =
    Lifecycle.Methodology.execute
      ~config:
        {
          Exec.Machine.default_config with
          iterations = 500;
          comm_jitter_frac = 0.5;
          law = Exec.Timing_law.Uniform;
        }
      design impl
  in
  Printf.printf
    "executive under 50%% comm jitter for 500 iterations: deadlock-free = true, order conformant = %b\n"
    (Exec.Machine.order_conformant trace)

(* ------------------------------------------------------------------ *)
(* latency sweep (Cervin-style cost-vs-latency curve) *)

let latency_sweep () =
  header "latency sweep: control cost vs I/O latency (fraction of Ts)";
  let snappy = dc_design () in
  let aggressive = dc_design ~gains:aggressive_gains () in
  Printf.printf "%-10s | %-12s %-10s | %-12s %-10s\n" "latency/Ts" "snappy IAE" "degr %"
    "aggr. IAE" "degr %";
  let ideal design =
    (Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ())
       ~durations:(dc_durations ~frac:0.01 ()) ())
      .Lifecycle.Methodology.ideal_cost
  in
  let ideal_snappy = ideal snappy and ideal_aggr = ideal aggressive in
  List.iter
    (fun frac ->
      let durations = dc_durations ~frac () in
      let implemented design =
        (Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ()) ~durations ())
          .Lifecycle.Methodology.implemented_cost
      in
      let cs = implemented snappy and ca = implemented aggressive in
      Printf.printf "%-10.2f | %-12.5f %-10.1f | %-12.4g %-10.3g\n" frac cs
        ((cs -. ideal_snappy) /. ideal_snappy *. 100.)
        ca
        ((ca -. ideal_aggr) /. ideal_aggr *. 100.))
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.98 ];
  Printf.printf
    "(the aggressive design crosses into instability as latency nears Ts —\n\
    \ the crossover the methodology detects before any code runs)\n"

(* ------------------------------------------------------------------ *)
(* jitter sweep *)

let jitter_sweep () =
  header "jitter sweep: control cost vs execution-time variability";
  let design = dc_design () in
  let durations = dc_durations ~frac:0.9 () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ()) ~durations ()
  in
  (* two views: (a) shrinking BCET lowers the *mean* latency (costs
     improve); (b) at a fixed [0.2·WCET, WCET] interval, widening the
     spread around a constant mean isolates pure jitter *)
  Printf.printf "(a) mean-latency effect — uniform law over [bcet, wcet]\n";
  Printf.printf "%-12s %-12s\n" "bcet/wcet" "impl IAE";
  List.iter
    (fun bcet_frac ->
      let mode =
        if bcet_frac >= 1. then Translator.Delay_graph.Static_wcet
        else
          Translator.Delay_graph.Jittered
            { law = Exec.Timing_law.Uniform; bcet_frac; seed = 17 }
      in
      let e = Lifecycle.Methodology.simulate_implemented ~mode design impl in
      Printf.printf "%-12.2f %-12.5f\n" bcet_frac (design.Lifecycle.Design.cost e))
    [ 1.0; 0.8; 0.6; 0.4; 0.2 ];
  Printf.printf "\n(b) pure-jitter effect — gaussian, constant mean 0.6 WCET\n";
  Printf.printf "%-12s %-12s\n" "sigma/span" "impl IAE";
  List.iter
    (fun sigma_frac ->
      let mode =
        Translator.Delay_graph.Jittered
          {
            law = Exec.Timing_law.Gaussian { mean_frac = 0.5; sigma_frac };
            bcet_frac = 0.2;
            seed = 17;
          }
      in
      let e = Lifecycle.Methodology.simulate_implemented ~mode design impl in
      Printf.printf "%-12.2f %-12.5f\n" sigma_frac (design.Lifecycle.Design.cost e))
    [ 0.01; 0.1; 0.2; 0.4 ]

(* ------------------------------------------------------------------ *)
(* adequation sweep *)

let adequation_sweep () =
  header "adequation: makespan vs processors; ranking strategies and refinement";
  Printf.printf "%-8s %-12s %-16s %-12s\n" "#procs" "pressure" "earliest-finish" "refined";
  List.iter
    (fun n ->
      let procs = List.init n (fun i -> Printf.sprintf "P%d" i) in
      let arch =
        if n = 1 then Arch.single ()
        else Arch.bus_topology ~latency:0.005 ~time_per_word:0.002 procs
      in
      let procs = if n = 1 then [ "P0" ] else procs in
      let alg, d = Aaa.Workloads.fork_join ~branches:8 ~operators:procs () in
      let run strategy =
        Aaa.Adequation.run ~strategy ~algorithm:alg ~architecture:arch ~durations:d ()
      in
      let pressure = run Aaa.Adequation.Pressure in
      let eft = run Aaa.Adequation.Earliest_finish in
      let refined =
        Aaa.Adequation.refine ~iterations:150 ~algorithm:alg ~architecture:arch
          ~durations:d ~initial:pressure ()
      in
      Printf.printf "%-8d %-12.4f %-16.4f %-12.4f\n" n pressure.Sched.makespan
        eft.Sched.makespan refined.Sched.makespan)
    [ 1; 2; 4; 8 ];
  (* heterogeneous random workloads: where greedy ranking leaves room
     for the local-search refinement *)
  Printf.printf "\nrandom layered workloads on 3 processors (pressure vs refined):\n";
  Printf.printf "%-8s %-12s %-12s %-10s\n" "seed" "pressure" "refined" "gain %";
  List.iter
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let procs = [ "P0"; "P1"; "P2" ] in
      let alg, d =
        Aaa.Workloads.layered ~rng ~layers:5 ~width:4 ~wcet_min:0.001 ~wcet_max:0.05
          ~operators:procs ()
      in
      let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 procs in
      let initial = Aaa.Adequation.run ~algorithm:alg ~architecture:arch ~durations:d () in
      let refined =
        Aaa.Adequation.refine ~iterations:250 ~seed ~algorithm:alg ~architecture:arch
          ~durations:d ~initial ()
      in
      Printf.printf "%-8d %-12.4f %-12.4f %-10.1f\n" seed initial.Sched.makespan
        refined.Sched.makespan
        (100. *. (initial.Sched.makespan -. refined.Sched.makespan) /. initial.Sched.makespan))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* windup: actuator saturation x integrator windup x latency *)

let windup () =
  header "windup: actuator saturation, integrator windup and latency interact";
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let u_limit = 12.0 in
  let make_design ~anti_windup =
    let build () =
      let g = G.create () in
      let plant =
        G.add g
          (C.lti_continuous ~name:"plant" ~x0:[| 0.; 0. |]
             (Control.Plants.dc_motor Control.Plants.default_dc_motor))
      in
      let reference = G.add g (C.constant ~name:"reference" [| 1. |]) in
      let sampler = G.add g (C.sample_hold ~name:"sample_y" 1) in
      let pid_block =
        let windup = if anti_windup then Some u_limit else None in
        G.add g
          (C.pid ~name:"pid" (Control.Pid.create ?windup ~gains:snappy_gains ~ts:0.05 ()))
      in
      let hold = G.add g (C.sample_hold ~name:"hold_u" 1) in
      (* the physical actuator saturates outside the control law *)
      let sat = G.add g (C.saturation ~name:"actuator" ~lo:(-.u_limit) ~hi:u_limit ()) in
      G.connect_data g ~src:(plant, 0) ~dst:(sampler, 0);
      G.connect_data g ~src:(reference, 0) ~dst:(pid_block, 0);
      G.connect_data g ~src:(sampler, 0) ~dst:(pid_block, 1);
      G.connect_data g ~src:(pid_block, 0) ~dst:(hold, 0);
      G.connect_data g ~src:(hold, 0) ~dst:(sat, 0);
      G.connect_data g ~src:(sat, 0) ~dst:(plant, 0);
      {
        Lifecycle.Design.graph = g;
        clocked = [ sampler; pid_block; hold ];
        members = [ reference; sampler; pid_block; hold ];
        memories = [];
        probes = [ ("y", (plant, 0)); ("u", (sat, 0)) ];
        condition_feed = None;
        customize_algorithm = None;
      }
    in
    Lifecycle.Design.make
      ~name:(if anti_windup then "dc_antiwindup" else "dc_windup")
      ~ts:0.05 ~horizon:10.
      ~cost:(fun e -> Control.Metrics.iae ~reference:1. (Sim.Engine.probe_component e "y" 0))
      build
  in
  Printf.printf "%-22s %-12s %-14s\n" "controller" "ideal IAE" "impl IAE (f=0.9)";
  List.iter
    (fun anti_windup ->
      let design = make_design ~anti_windup in
      let c =
        Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ())
          ~durations:(dc_durations ~frac:0.9 ())
          ()
      in
      Printf.printf "%-22s %-12.4f %-14.4f\n"
        (if anti_windup then "PID + anti-windup" else "naive PID (winds up)")
        c.Lifecycle.Methodology.ideal_cost c.Lifecycle.Methodology.implemented_cost)
    [ false; true ];
  Printf.printf
    "(the reference step drives the actuator into its +/-%.0f V saturation; the\n\
    \ unguarded integrator winds up and the latency deepens the recovery -\n\
    \ both visible in the same design-time co-simulation)\n"
    u_limit

(* ------------------------------------------------------------------ *)
(* suspension: quarter-car state feedback over a two-ECU bus — shared
   by the lifecycle experiment and the lint audit *)

let suspension_setup () =
  let qc = Control.Plants.default_quarter_car in
  let full =
    let sys = Control.Plants.quarter_car qc in
    Control.Lti.make ~domain:Control.Lti.Continuous ~a:sys.Control.Lti.a
      ~b:sys.Control.Lti.b ~c:(M.identity 4) ~d:(M.zeros 4 2)
  in
  let force_only =
    Control.Lti.make ~domain:Control.Lti.Continuous ~a:full.Control.Lti.a
      ~b:(M.block full.Control.Lti.b 0 0 4 1) ~c:(M.identity 4) ~d:(M.zeros 4 1)
  in
  let ts = 0.05 in
  let q =
    M.of_arrays
      [|
        [| 1e6; 0.; 0.; 0. |]; [| 0.; 1e4; 0.; 0. |]; [| 0.; 0.; 1e2; 0. |];
        [| 0.; 0.; 0.; 1e1 |];
      |]
  in
  let r = M.of_arrays [| [| 1e-6 |] |] in
  let bump () =
    Dataflow.Block.make ~name:"road_bump" ~out_widths:[| 1 |] ~always_active:true
      (fun ctx ->
        let t = ctx.Dataflow.Block.time in
        let z =
          if t >= 0.5 && t < 0.7 then
            0.05 *. (1. -. cos (10. *. Float.pi *. (t -. 0.5))) /. 2.
          else 0.
        in
        [| [| z |] |])
  in
  let arch =
    Arch.bus_topology ~latency:0.001 ~time_per_word:0.0005 [ "wheel_ecu"; "body_ecu" ]
  in
  let durations () =
    let d = Dur.create () in
    for i = 0 to 3 do
      Dur.set d ~op:(Printf.sprintf "sample_x%d" i) ~operator:"wheel_ecu" 0.0024
    done;
    Dur.set d ~op:"sfb" ~operator:"body_ecu" 0.0238;
    Dur.set d ~op:"hold_u" ~operator:"body_ecu" 0.0024;
    d
  in
  let k_nom = Lifecycle.Calibrate.lqr_gain ~plant:force_only ~ts ~q ~r () in
  let nominal =
    Lifecycle.Design.state_feedback_loop ~name:"nominal" ~plant:full ~x0:(Array.make 4 0.)
      ~k:k_nom ~ts ~horizon:3. ~disturbance:bump ~cost_output:0 ()
  in
  (nominal, arch, durations, force_only, full, ts, q, r, bump)

(* ------------------------------------------------------------------ *)
(* lifecycle: the suspension calibration story, condensed *)

let lifecycle () =
  header "lifecycle: suspension — predict degradation, calibrate, recover";
  (* identical to examples/suspension.ml, condensed to the numbers *)
  let nominal, arch, durations, force_only, full, ts, q, r, bump = suspension_setup () in
  let c =
    Lifecycle.Methodology.evaluate ~design:nominal ~architecture:arch
      ~durations:(durations ()) ()
  in
  let tau =
    Float.min ts
      (TM.io_latency c.Lifecycle.Methodology.implementation.Lifecycle.Methodology.static)
  in
  let k_cal = Lifecycle.Calibrate.lqr_delay_gain ~plant:force_only ~ts ~delay:tau ~q ~r () in
  let calibrated =
    Lifecycle.Design.delayed_state_feedback_loop ~name:"calibrated" ~plant:full
      ~x0:(Array.make 4 0.) ~k_aug:k_cal ~ts ~horizon:3. ~disturbance:bump ~cost_output:0 ()
  in
  let impl_cal =
    Lifecycle.Methodology.implement ~design:calibrated ~architecture:arch
      ~durations:(durations ()) ()
  in
  let cost_cal =
    calibrated.Lifecycle.Design.cost
      (Lifecycle.Methodology.simulate_implemented calibrated impl_cal)
  in
  Printf.printf "predicted I/O latency tau = %.4g s (%.0f %% of Ts)\n" tau (100. *. tau /. ts);
  Printf.printf "ideal cost              : %.6g\n" c.Lifecycle.Methodology.ideal_cost;
  Printf.printf "implemented (nominal)   : %.6g (%+.1f %%)\n"
    c.Lifecycle.Methodology.implemented_cost c.Lifecycle.Methodology.degradation_pct;
  Printf.printf "implemented (calibrated): %.6g\n" cost_cal;
  Printf.printf "degradation recovered   : %.1f %%\n"
    ((c.Lifecycle.Methodology.implemented_cost -. cost_cal)
    /. (c.Lifecycle.Methodology.implemented_cost -. c.Lifecycle.Methodology.ideal_cost)
    *. 100.)

(* ------------------------------------------------------------------ *)
(* quantization: the amplitude-domain implementation effect *)

let quantization () =
  header "quantization: control cost vs ADC resolution (timing held ideal)";
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let make_design step =
    let build () =
      let g = G.create () in
      let plant =
        G.add g
          (C.lti_continuous ~name:"plant" ~x0:[| 0.; 0. |]
             (Control.Plants.dc_motor Control.Plants.default_dc_motor))
      in
      (* the quantiser models the ADC: part of the physical interface,
         not of the control law *)
      let adc =
        if step > 0. then G.add g (C.quantizer ~name:"adc" ~step ())
        else G.add g (C.gain ~name:"adc" 1.)
      in
      G.connect_data g ~src:(plant, 0) ~dst:(adc, 0);
      let reference = G.add g (C.constant ~name:"reference" [| 1. |]) in
      let sampler = G.add g (C.sample_hold ~name:"sample_y" 1) in
      let pid =
        G.add g
          (C.pid ~name:"pid" (Control.Pid.create ~gains:snappy_gains ~ts:0.05 ()))
      in
      let hold = G.add g (C.sample_hold ~name:"hold_u" 1) in
      G.connect_data g ~src:(adc, 0) ~dst:(sampler, 0);
      G.connect_data g ~src:(reference, 0) ~dst:(pid, 0);
      G.connect_data g ~src:(sampler, 0) ~dst:(pid, 1);
      G.connect_data g ~src:(pid, 0) ~dst:(hold, 0);
      G.connect_data g ~src:(hold, 0) ~dst:(plant, 0);
      {
        Lifecycle.Design.graph = g;
        clocked = [ sampler; pid; hold ];
        members = [ reference; sampler; pid; hold ];
        memories = [];
        probes = [ ("y", (plant, 0)) ];
        condition_feed = None;
        customize_algorithm = None;
      }
    in
    Lifecycle.Design.make ~name:"dc_quantized" ~ts:0.05 ~horizon:10.
      ~cost:(fun e -> Control.Metrics.iae ~reference:1. (Sim.Engine.probe_component e "y" 0))
      build
  in
  Printf.printf "%-12s %-12s\n" "ADC step" "IAE";
  List.iter
    (fun step ->
      let design = make_design step in
      let e = Lifecycle.Methodology.simulate_ideal design in
      Printf.printf "%-12g %-12.5f\n" step (design.Lifecycle.Design.cost e))
    [ 0.; 0.001; 0.01; 0.05; 0.1; 0.2 ];
  Printf.printf "(coarser sampling of the measure degrades the loop even with ideal\n\
                \ timing — the amplitude counterpart of the paper's timing effects)\n"

(* ------------------------------------------------------------------ *)
(* margins: frequency-domain delay margin vs co-simulated instability *)

let margins () =
  header "margins: delay margin (frequency domain) vs co-simulated instability";
  let ts = 0.05 in
  let plant = Control.Plants.dc_motor Control.Plants.default_dc_motor in
  let plant_d = Control.Discretize.discretize ~ts plant in
  let analyse label gains =
    let c =
      Control.Tf.to_ss ~domain:(Control.Lti.Discrete ts) (Control.Pid.to_tf gains ~ts)
    in
    let open_loop = Control.Lti.series c plant_d in
    let m = Control.Freq.margins ~n:1200 ~w_min:1e-2 ~w_max:(Float.pi /. ts) open_loop in
    let dm = m.Control.Freq.delay_margin in
    Printf.printf "%-12s wc = %s rad/s, PM = %s deg, predicted delay margin = %s (%.0f %% of Ts)\n"
      label
      (match m.Control.Freq.gain_crossover with Some x -> Printf.sprintf "%.2f" x | None -> "-")
      (match m.Control.Freq.phase_margin_deg with Some x -> Printf.sprintf "%.1f" x | None -> "-")
      (match dm with Some x -> Printf.sprintf "%.4f s" x | None -> "-")
      (match dm with Some x -> 100. *. x /. ts | None -> Float.nan);
    dm
  in
  let dm_snappy = analyse "snappy" snappy_gains in
  let dm_aggr = analyse "aggressive" aggressive_gains in
  (* empirical instability: finest latency fraction where the
     co-simulated cost stays below 20x the ideal *)
  let empirical gains =
    let design = dc_design ~gains () in
    let ideal =
      (Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ())
         ~durations:(dc_durations ~frac:0.02 ())
         ())
        .Lifecycle.Methodology.ideal_cost
    in
    let unstable frac =
      let c =
        Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ())
          ~durations:(dc_durations ~frac ())
          ()
      in
      (not (Float.is_finite c.Lifecycle.Methodology.implemented_cost))
      || c.Lifecycle.Methodology.implemented_cost > 20. *. ideal
    in
    let rec search lo hi n =
      if n = 0 then (lo +. hi) /. 2.
      else
        let mid = (lo +. hi) /. 2. in
        if unstable mid then search lo mid (n - 1) else search mid hi (n - 1)
    in
    if not (unstable 0.99) then None else Some (search 0.02 0.99 8 *. ts)
  in
  let report label dm emp =
    Printf.printf "%-12s predicted %.4f s vs co-simulated instability at %s\n" label
      (Option.value dm ~default:Float.nan)
      (match emp with Some x -> Printf.sprintf "%.4f s" x | None -> ">= Ts (stable)")
  in
  report "snappy" dm_snappy (empirical snappy_gains);
  report "aggressive" dm_aggr (empirical aggressive_gains);
  Printf.printf
    "(the actuation latency consumes phase margin; the co-simulation finds the\n\
    \ same breaking point the frequency-domain analysis predicts)\n"

(* ------------------------------------------------------------------ *)
(* exploration: which architecture meets the control requirement? *)

let exploration () =
  header "exploration: architecture selection against a control requirement";
  (* the loop's computations are too heavy for a cheap single MCU:
     explore candidate platforms and pick the cheapest one keeping the
     degradation below 10 % *)
  let design = dc_design () in
  let ideal =
    design.Lifecycle.Design.cost (Lifecycle.Methodology.simulate_ideal design)
  in
  (* candidate platforms: (label, relative cost, architecture, WCET scale) *)
  let shares = [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ] in
  let durations ~operators ~scale =
    let d = Dur.create () in
    List.iter
      (fun (op, share) ->
        List.iter
          (fun operator -> Dur.set d ~op ~operator (share *. scale *. 0.05))
          operators)
      shares;
    d
  in
  let candidates =
    [
      ("slow MCU", 1.0, Arch.single ~proc_name:"mcu" (), durations ~operators:[ "mcu" ] ~scale:0.95);
      ( "2 slow MCUs + bus",
        2.2,
        dc_two_proc (),
        durations ~operators:[ "P0"; "P1" ] ~scale:0.95 );
      ("fast MCU", 3.0, Arch.single ~proc_name:"mcu" (), durations ~operators:[ "mcu" ] ~scale:0.3);
      ( "premium MCU",
        5.0,
        Arch.single ~proc_name:"mcu" (),
        durations ~operators:[ "mcu" ] ~scale:0.1 );
    ]
  in
  Printf.printf "%-20s %-10s %-12s %-10s %-10s\n" "platform" "cost" "impl IAE" "degr %"
    "meets 10%?";
  let best = ref None in
  List.iter
    (fun (label, price, architecture, durations) ->
      let c = Lifecycle.Methodology.evaluate ~design ~architecture ~durations () in
      let degr = (c.Lifecycle.Methodology.implemented_cost -. ideal) /. ideal *. 100. in
      let ok = degr <= 10. in
      if ok then (match !best with
        | Some (_, p) when p <= price -> ()
        | _ -> best := Some (label, price));
      Printf.printf "%-20s %-10.1f %-12.5f %-10.1f %-10s\n" label price
        c.Lifecycle.Methodology.implemented_cost degr
        (if ok then "yes" else "no"))
    candidates;
  (match !best with
  | Some (label, price) ->
      Printf.printf "\ncheapest platform meeting the requirement: %s (cost %.1f)\n" label price
  | None -> Printf.printf "\nno candidate meets the requirement\n");
  Printf.printf
    "(note the negative result for the 2-MCU platform: the control chain is\n\
    \ serial, so doubling the processors barely reduces the I/O latency)\n";
  Printf.printf
    "(the decision is taken from co-simulations alone — no prototype of any\n\
    \ candidate platform was built, which is the methodology's promise)\n"

(* ------------------------------------------------------------------ *)
(* montecarlo: cost distribution under execution-time jitter *)

let montecarlo () =
  header "montecarlo: implemented-cost distribution under timing jitter";
  let design = dc_design () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ())
      ~durations:(dc_durations ~frac:0.9 ())
      ()
  in
  let ideal =
    design.Lifecycle.Design.cost (Lifecycle.Methodology.simulate_ideal design)
  in
  let s =
    Lifecycle.Montecarlo.run ~runs:30 ~design ~implementation:impl ()
  in
  Printf.printf "ideal cost: %.5f\n" ideal;
  Format.printf "%a@." Lifecycle.Montecarlo.pp s;
  Printf.printf
    "(every jittered run lies between the ideal and the WCET-static bound:\n\
    \ the static model is the safe envelope the adequation plans against)\n"

(* ------------------------------------------------------------------ *)
(* codegen robustness *)

let codegen_exec () =
  header "codegen: executive robustness across laws and seeds";
  let design = dc_design () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.8 () in
  let impl =
    Lifecycle.Methodology.implement ~design ~architecture:(dc_two_proc ()) ~durations ()
  in
  let laws =
    [
      ("wcet", Exec.Timing_law.Wcet);
      ("uniform", Exec.Timing_law.Uniform);
      ("triangular", Exec.Timing_law.Triangular 0.25);
      ("gaussian", Exec.Timing_law.Gaussian { mean_frac = 0.6; sigma_frac = 0.3 });
    ]
  in
  Printf.printf "%-12s %-8s %-12s %-12s\n" "law" "seeds" "conformant" "overruns";
  List.iter
    (fun (name, law) ->
      let conformant = ref 0 and overruns = ref 0 in
      for seed = 0 to 19 do
        let trace =
          Exec.Machine.run
            ~config:
              {
                Exec.Machine.default_config with
                iterations = 100;
                law;
                comm_jitter_frac = 0.3;
                seed;
                durations = Some durations;
              }
            impl.Lifecycle.Methodology.executive
        in
        if Exec.Machine.order_conformant trace then incr conformant;
        overruns := !overruns + trace.Exec.Machine.overruns
      done;
      Printf.printf "%-12s %-8d %-12d %-12d\n" name 20 !conformant !overruns)
    laws

(* ------------------------------------------------------------------ *)
(* baseline: synchronised executive vs unsynchronised best-effort *)

let baseline () =
  header "baseline: synchronised executive vs time-triggered table (no sync)";
  let design = dc_design () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.8 () in
  let impl =
    Lifecycle.Methodology.implement
      ~pins:[ ("sample_y", "P0"); ("pid", "P1"); ("hold_u", "P0") ]
      ~design ~architecture:(dc_two_proc ()) ~durations ()
  in
  let exe = impl.Lifecycle.Methodology.executive in
  Printf.printf "%-14s | %-24s | %-30s\n" "overrun prob" "synchronised (Machine)"
    "time-triggered (Async)";
  Printf.printf "%-14s | %-10s %-12s | %-10s %-9s %-9s\n" "(factor 2.0)" "mean La" "stale"
    "mean La" "stale" "of total";
  List.iter
    (fun p ->
      let sync_trace =
        Exec.Machine.run
          ~config:
            {
              Exec.Machine.default_config with
              iterations = 300;
              comm_jitter_frac = 0.2;
              overrun_prob = p;
              overrun_factor = 2.0;
              durations = Some durations;
            }
          exe
      in
      let sync_la =
        match Exec.Machine.actuation_latencies sync_trace with
        | (_, lat) :: _ -> Numerics.Stats.mean lat
        | [] -> Float.nan
      in
      let tt =
        Exec.Async.run
          ~config:
            {
              Exec.Async.default_config with
              iterations = 300;
              comm_jitter_frac = 0.2;
              overrun_prob = p;
              overrun_factor = 2.0;
            }
          exe
      in
      let tt_la =
        match tt.Exec.Async.actuation_latencies with
        | (_, lat) :: _ -> Numerics.Stats.mean lat
        | [] -> Float.nan
      in
      Printf.printf "%-14.2f | %-10.5f %-12d | %-10.5f %-9d %-9d\n" p sync_la 0 tt_la
        tt.Exec.Async.violations tt.Exec.Async.remote_consumptions)
    [ 0.0; 0.05; 0.15; 0.3 ];
  Printf.printf
    "(under the WCET contract both are correct; when executions overrun, the\n\
    \ time-triggered table silently consumes stale data while the synchronised\n\
    \ executive blocks and stays coherent — the deadlock-free order guarantee\n\
    \ the paper attributes to the generated code)\n"

(* ------------------------------------------------------------------ *)
(* faults: structural faults — failover schedules and robustness *)

let faults () =
  header "faults: fail-stop/outage/loss scenarios, failover re-adequation";
  (* 1. single-failure failover table on the fork_join workload *)
  let procs = [ "P0"; "P1"; "P2" ] in
  let arch = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 procs in
  let alg, d = Aaa.Workloads.fork_join ~period:0.5 ~branches:6 ~operators:procs () in
  let nominal = Aaa.Adequation.run ~algorithm:alg ~architecture:arch ~durations:d () in
  Printf.printf "fork_join (6 branches) on 3 processors: nominal makespan %.4f\n"
    nominal.Sched.makespan;
  let table =
    Fault.Degrade.failover_table ~algorithm:alg ~architecture:arch ~durations:d ~nominal ()
  in
  List.iter (fun f -> Format.printf "  %a@." Fault.Degrade.pp_failover f) table;
  (* 2. robustness of the DC-motor loop across fault scenarios *)
  let design = dc_design ~horizon:4. () in
  let architecture = dc_two_proc () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () in
  let scenarios =
    Fault.Scenario.single_processor_failures ~at:1.0 ~seed:500 architecture
    @ [
        Fault.Scenario.make ~name:"bus_outage" ~seed:502
          [ Fault.Scenario.Medium_outage { medium = "bus"; from_t = 1.0; until_t = 1.5 } ];
        Fault.Scenario.make ~name:"loss_10pct" ~seed:503
          [ Fault.Scenario.Message_loss { medium = None; prob = 0.1 } ];
        Fault.Scenario.make ~name:"overrun_bursts" ~seed:504
          [
            Fault.Scenario.Overrun_burst
              { start_prob = 0.05; stop_prob = 0.3; overrun_prob = 0.8; factor = 2.0 };
          ];
      ]
  in
  let summary =
    Fault.Robustness.evaluate ~iterations:200 ~design ~architecture ~durations
      ~scenarios ()
  in
  Format.printf "%a@." Fault.Robustness.pp summary;
  Printf.printf "\n%s" (Fault.Fault_report.markdown_section summary)

(* ------------------------------------------------------------------ *)
(* recovery: online detection, retransmission and mid-run mode switch *)

let recovery () =
  header "recovery: online detection, retransmission and mid-run mode switch";
  let design = dc_design ~horizon:4. () in
  let architecture = dc_two_proc () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () in
  let period = design.Lifecycle.Design.ts in
  let iterations = 80 in
  (* 1. executive timeline: P1 fail-stops at 1.0 s with the full
     policy on — watchdog, heartbeats and the precomputed failover *)
  let nominal = Lifecycle.Methodology.implement ~design ~architecture ~durations () in
  let table =
    Fault.Degrade.failover_table ~algorithm:nominal.Lifecycle.Methodology.algorithm
      ~architecture ~durations ~nominal:nominal.Lifecycle.Methodology.schedule ()
  in
  let policy =
    Exec.Recovery.make ~failover:(Fault.Degrade.failover_executives table) ~period ()
  in
  let scenario =
    Fault.Scenario.make ~name:"failstop_P1" ~seed:500
      [ Fault.Scenario.Processor_failstop { operator = "P1"; at = 1.0 } ]
  in
  let config =
    {
      Exec.Machine.default_config with
      iterations;
      seed = 500;
      durations = Some durations;
      injection = Fault.Scenario.injection scenario ~architecture;
      recovery = policy;
    }
  in
  let trace = Lifecycle.Methodology.execute ~config design nominal in
  Printf.printf "fail-stop of P1 at 1.0 s, %d iterations of Ts = %g s:\n" iterations
    period;
  let stale, other =
    List.partition
      (function Exec.Recovery.Stale_detected _ -> true | _ -> false)
      trace.Exec.Machine.recovery_events
  in
  Printf.printf "  freshness watchdog dated %d stale reads\n" (List.length stale);
  (match stale with
  | e :: _ -> Format.printf "  first: %a@." Exec.Recovery.pp_event e
  | [] -> ());
  List.iter (fun e -> Format.printf "  %a@." Exec.Recovery.pp_event e) other;
  (match trace.Exec.Machine.detection_latency with
  | Some l -> Printf.printf "  detection latency %g s\n" l
  | None -> ());
  (match trace.Exec.Machine.switched_at with
  | Some k ->
      Printf.printf "  running on the failover executive from iteration %d on\n" k
  | None -> ());
  Printf.printf "  order conformant across both phases: %b\n"
    (Exec.Machine.order_conformant trace);
  let trace' = Lifecycle.Methodology.execute ~config design nominal in
  Printf.printf "  re-run reproduces the timeline bit-for-bit: %b\n"
    (trace.Exec.Machine.recovery_events = trace'.Exec.Machine.recovery_events);
  (* 2. bounded retransmission under message loss *)
  let loss =
    Fault.Scenario.make ~name:"loss_20pct" ~seed:501
      [ Fault.Scenario.Message_loss { medium = None; prob = 0.2 } ]
  in
  let cfg_loss =
    {
      config with
      Exec.Machine.seed = 501;
      injection = Fault.Scenario.injection loss ~architecture;
      recovery = { policy with Exec.Recovery.failover = [] };
    }
  in
  let with_r = Lifecycle.Methodology.execute ~config:cfg_loss design nominal in
  let without_r =
    Lifecycle.Methodology.execute
      ~config:{ cfg_loss with Exec.Machine.recovery = Exec.Recovery.disabled }
      design nominal
  in
  Printf.printf
    "\n\
     20 %% message loss: %d retries recovered %d transfers; %d stay lost (vs %d \
     without recovery); stale %d vs %d; overruns %d vs %d\n"
    with_r.Exec.Machine.retransmissions with_r.Exec.Machine.recovered_transfers
    with_r.Exec.Machine.lost_transfers without_r.Exec.Machine.lost_transfers
    with_r.Exec.Machine.stale_reads without_r.Exec.Machine.stale_reads
    with_r.Exec.Machine.overruns without_r.Exec.Machine.overruns;
  (* 3. the design-time verdict: robustness with vs without recovery,
     including the recovered-vs-frozen control cost split *)
  let scenarios =
    (* P0 hosts the sensor→controller→actuator chain; failing it at
       0.05 s — right in the 1.0-step transient — freezes a slewing
       control value, the case where switching to the failover executive
       pays.  (P1 only hosts the constant reference: freezing it is a
       no-op, so its fail-stop carries no recoverable cost.) *)
    [
      Fault.Scenario.make ~name:"failstop_P0" ~seed:500
        [ Fault.Scenario.Processor_failstop { operator = "P0"; at = 0.05 } ];
    ]
  in
  let summary =
    Fault.Robustness.evaluate ~iterations ~recovery:(Exec.Recovery.make ~period ())
      ~design ~architecture ~durations ~scenarios ()
  in
  Format.printf "@.%a@." Fault.Robustness.pp summary;
  Printf.printf "\n%s" (Fault.Fault_report.markdown_section summary)

(* ------------------------------------------------------------------ *)
(* standby: hot-standby replica, output voting, schedule-time slack *)

let standby () =
  header "standby: hot-standby replica execution with output voting";
  let design = dc_design ~horizon:4. () in
  let architecture = dc_two_proc () in
  let durations = dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () in
  let period = design.Lifecycle.Design.ts in
  let iterations = 80 in
  let nominal = Lifecycle.Methodology.implement ~design ~architecture ~durations () in
  let sched = nominal.Lifecycle.Methodology.schedule in
  let algorithm = nominal.Lifecycle.Methodology.algorithm in
  (* 1. the replica plans: each failover copy re-hosted as a concurrent
     hot standby instead of a blackout-then-switch target *)
  let table =
    Fault.Degrade.failover_table ~algorithm ~architecture ~durations ~nominal:sched ()
  in
  let plans = Fault.Degrade.standby_plans ~nominal:sched table in
  List.iter (fun p -> Format.printf "  %a@." Fault.Degrade.pp_standby_plan p) plans;
  (* 2. the voted run: P0 (the whole sense→control→actuate chain)
     fail-stops at 0.05 s, right in the 1.0-step transient; the
     replica stream is live from iteration 0, so the voter falls
     through the period the primary goes stale — zero blackout *)
  let plan =
    match Fault.Degrade.standby_plan_for table ~nominal:sched ~operator:"P0" with
    | Some p -> p
    | None -> failwith "no standby plan for P0"
  in
  let scenario =
    Fault.Scenario.make ~name:"failstop_P0" ~seed:500
      [ Fault.Scenario.Processor_failstop { operator = "P0"; at = 0.05 } ]
  in
  let config =
    {
      Exec.Machine.default_config with
      iterations;
      seed = 500;
      durations = Some durations;
      injection = Fault.Scenario.injection scenario ~architecture;
      recovery = Exec.Recovery.make ~period ();
    }
  in
  let run () =
    Exec.Standby.run ~config ~protects:"P0"
      ~standby:plan.Fault.Degrade.executive nominal.Lifecycle.Methodology.executive
  in
  let trace = run () in
  Format.printf "%a@." Exec.Standby.pp trace;
  let trace' = run () in
  (* structural compare, not (=): Held decisions date their actuation
     instant as nan *)
  Printf.printf "  re-run reproduces the voted timeline bit-for-bit: %b\n"
    (compare trace.Exec.Standby.decisions trace'.Exec.Standby.decisions = 0
    && compare trace.Exec.Standby.events trace'.Exec.Standby.events = 0);
  (* 3. the design-time verdict: frozen vs blackout-then-switch vs
     hot standby over the same post-failure window *)
  let summary =
    Fault.Robustness.evaluate ~iterations ~recovery:(Exec.Recovery.make ~period ())
      ~standby:true ~design ~architecture ~durations ~scenarios:[ scenario ] ()
  in
  Format.printf "@.%a@." Fault.Robustness.pp summary;
  List.iter
    (fun (o : Fault.Robustness.outcome) ->
      match o.Fault.Robustness.recovery with
      | Some { Fault.Robustness.standby = Some sb; _ } -> (
          match
            ( sb.Fault.Robustness.standby_post_cost,
              sb.Fault.Robustness.switch_post_cost,
              sb.Fault.Robustness.frozen_post_cost )
          with
          | Some sbc, Some swc, Some frc ->
              Printf.printf
                "\n\
                \  post-failure cost: %.6g hot-standby vs %.6g blackout-then-switch \
                 vs %.6g frozen\n\
                \  hot-standby strictly below blackout-then-switch: %b\n"
                sbc swc frc (sbc < swc)
          | _ -> ())
      | _ -> ())
    summary.Fault.Robustness.outcomes;
  Printf.printf "\n%s" (Fault.Fault_report.markdown_section summary);
  (* 4. schedule-time slack insertion: under a retransmission-only
     policy the unslacked schedule reads every transfer at its planned
     completion, so a retried payload lands late (REC005); retiming
     the read offsets with insert_slack absorbs the worst-case retry
     chain and the rule goes silent *)
  let rpol = Exec.Recovery.make ~heartbeat_timeout:0. ~period () in
  let slacked =
    Aaa.Schedule.insert_slack
      ~slack_of:(fun c ->
        Exec.Recovery.worst_case_retry_time rpol
          ~transfer_duration:c.Aaa.Schedule.cm_duration)
      sched
  in
  let count rule diags =
    List.length (List.filter (fun d -> d.Verify.Diag.rule = rule) diags)
  in
  let before = Verify.Recovery_rules.check rpol sched in
  let after = Verify.Recovery_rules.check rpol slacked in
  Printf.printf "\nschedule-time slack insertion (retransmission-only policy):\n";
  List.iter
    (fun (c : Aaa.Schedule.comm_slot) ->
      Printf.printf "  %s -> %s: completes %.6g, reads %.6g (retry window %.6g s)\n"
        (Aaa.Algorithm.op_name algorithm (fst c.Aaa.Schedule.cm_src))
        (Aaa.Algorithm.op_name algorithm (fst c.Aaa.Schedule.cm_dst))
        (c.Aaa.Schedule.cm_start +. c.Aaa.Schedule.cm_duration)
        c.Aaa.Schedule.cm_read
        (Aaa.Schedule.retry_slack c))
    slacked.Aaa.Schedule.comm;
  Printf.printf
    "  REC005 before: %d, after insert_slack: %d; makespan %.6g -> %.6g (consumers \
     retimed past their retry windows), still fits the period: %b\n"
    (count "REC005" before) (count "REC005" after) sched.Aaa.Schedule.makespan
    slacked.Aaa.Schedule.makespan
    (Aaa.Schedule.fits_period slacked)

(* ------------------------------------------------------------------ *)
(* explore: the batch-parallel, cached design-space engine *)

(* seeds per grid cell; set by --runs (the CI smoke run uses 2) *)
let explore_runs = ref 3

let explore () =
  header "explore: parallel design-space engine — grid, cache, Pareto front";
  (* periods × platforms × WCET-speed-grades × seeds.  WCETs are
     absolute (a property of code on hardware), so the same platform
     grid is meaningful for every sampling period. *)
  let designs =
    List.map
      (fun ts ->
        Lifecycle.Design.pid_loop
          ~name:(Printf.sprintf "dc_motor_ts%g" ts)
          ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
          ~x0:[| 0.; 0. |] ~gains:snappy_gains ~ts ~reference:1. ~horizon:4. ())
      [ 0.05; 0.06 ]
  in
  let shares = [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ] in
  let durations_for operators scale =
    let d = Dur.create () in
    List.iter
      (fun (op, share) ->
        List.iter
          (fun operator ->
            Dur.set d ~op ~operator (share *. scale *. 0.05);
            Dur.set_bcet d ~op ~operator (0.4 *. share *. scale *. 0.05))
          operators)
      shares;
    d
  in
  let platforms =
    [
      {
        Explore.Grid.label = "mcu";
        price = 1.0;
        architecture = Arch.single ~proc_name:"mcu" ();
        durations_of = (fun scale -> durations_for [ "mcu" ] scale);
      };
      {
        Explore.Grid.label = "duo";
        price = 2.2;
        architecture = dc_two_proc ();
        durations_of = (fun scale -> durations_for [ "P0"; "P1" ] scale);
      };
      {
        Explore.Grid.label = "fast_mcu";
        price = 3.0;
        architecture = Arch.single ~proc_name:"mcu" ();
        durations_of = (fun scale -> durations_for [ "mcu" ] (0.33 *. scale));
      };
    ]
  in
  let seeds = List.init (max 1 !explore_runs) (fun i -> 900 + i) in
  let candidates =
    Explore.Grid.candidates ~fractions:[ 0.3; 0.6; 0.95 ] ~seeds ~platforms ()
  in
  let pool = Explore.Pool.default () in
  let cache = Explore.Cache.create () in
  Printf.printf "grid: %d designs x %d candidates = %d evaluations, pool of %d domain(s)\n"
    (List.length designs)
    (Explore.Grid.size candidates)
    (List.length designs * Explore.Grid.size candidates)
    (Explore.Pool.domains pool);
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let points, t1 =
    timed (fun () -> Lifecycle.Explorer.evaluate ~pool ~cache ~designs ~candidates ())
  in
  let points2, t2 =
    timed (fun () -> Lifecycle.Explorer.evaluate ~pool ~cache ~designs ~candidates ())
  in
  Printf.printf "pass 1 (cold cache): %.3f s; pass 2 (warm cache): %.3f s (%s)\n" t1 t2
    (if points = points2 then "identical points" else "POINTS DIFFER");
  let n_evals = List.length points in
  Printf.printf
    "throughput: %.0f candidates/sec cold, %.0f candidates/sec cache-warm\n"
    (float_of_int n_evals /. t1)
    (float_of_int n_evals /. t2);
  let st = Explore.Cache.stats cache in
  Printf.printf "cache: %d hits, %d misses over both passes\n" st.Explore.Cache.hits
    st.Explore.Cache.misses;
  Format.printf "cache after both passes: %a@." Explore.Cache.pp_stats
    (Explore.Cache.stats cache);
  print_string (Lifecycle.Explorer.markdown_section ~cache points);
  let front = Lifecycle.Explorer.pareto points in
  Printf.printf "\nCSV export: %d rows (Explorer.csv); front holds %d of %d points\n"
    (List.length points) (List.length front) (List.length points)

(* ------------------------------------------------------------------ *)
(* explore-scale: the streamed map-reduce sweep at grid sizes no
   eager candidate list could hold — anytime Pareto snapshots while
   it runs, then a subsampled bit-for-bit check of the streamed
   engine-reuse pipeline against the rebuild-per-candidate
   reference *)

(* total candidate count; set by --candidates (CI smoke uses 10^4,
   the EXPERIMENTS.md entry is recorded at 10^5) *)
let explore_scale_target = ref 10_000

let explore_scale () =
  header "explore-scale: streamed sweep — ordered map-reduce, anytime front, subsample check";
  (* short screening horizon: triaging a huge grid is the regime the
     streamed engine-reuse pipeline targets *)
  let design =
    Lifecycle.Design.pid_loop ~name:"dc_motor_scale"
      ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
      ~x0:[| 0.; 0. |] ~gains:snappy_gains ~ts:0.05 ~reference:1. ~horizon:0.5 ()
  in
  let shares = [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ] in
  let durations_for operators scale =
    let d = Dur.create () in
    List.iter
      (fun (op, share) ->
        List.iter
          (fun operator ->
            Dur.set d ~op ~operator (share *. scale *. 0.05);
            Dur.set_bcet d ~op ~operator (0.4 *. share *. scale *. 0.05))
          operators)
      shares;
    d
  in
  let platforms =
    [
      {
        Explore.Grid.label = "mcu";
        price = 1.0;
        architecture = Arch.single ~proc_name:"mcu" ();
        durations_of = (fun scale -> durations_for [ "mcu" ] scale);
      };
      {
        Explore.Grid.label = "duo";
        price = 2.2;
        architecture = dc_two_proc ();
        durations_of = (fun scale -> durations_for [ "P0"; "P1" ] scale);
      };
    ]
  in
  let fractions = [ 0.3; 0.6; 0.9 ] in
  let cells = List.length platforms * List.length fractions in
  let n_seeds = max 1 ((max 1 !explore_scale_target + cells - 1) / cells) in
  let seeds = List.init n_seeds (fun i -> 900 + i) in
  let candidates () = Explore.Grid.seq ~fractions ~seeds ~platforms () in
  let total = Explore.Grid.count ~fractions ~seeds ~platforms () in
  let pool = Explore.Pool.default () in
  Printf.printf
    "grid: %d cells x %d seeds = %d candidates, streamed (never materialized), pool of %d domain(s)\n"
    cells n_seeds total
    (Explore.Pool.domains pool);
  let snapshot_every = max 1 (total / 8) in
  let sample_every = max 1 (total / 16) in
  let t0 = Unix.gettimeofday () in
  let summary =
    Lifecycle.Explorer.evaluate_seq ~pool ~snapshot_every
      ~snapshot:(fun p ->
        Printf.printf "anytime snapshot: evaluated=%d feasible=%d front=%d\n%!"
          p.Lifecycle.Explorer.p_evaluated p.Lifecycle.Explorer.p_feasible
          (List.length p.Lifecycle.Explorer.p_front))
      ~sample_every ~designs:[ design ]
      ~candidates:(candidates ()) ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "evaluated %d candidates in %.2f s: %.0f candidates/sec (feasible %d, infeasible %d, front %d)\n"
    summary.Lifecycle.Explorer.s_evaluated dt
    (float_of_int summary.Lifecycle.Explorer.s_evaluated /. dt)
    summary.Lifecycle.Explorer.s_feasible summary.Lifecycle.Explorer.s_infeasible
    (List.length summary.Lifecycle.Explorer.s_front);
  if summary.Lifecycle.Explorer.s_front = [] then begin
    Printf.printf "FAIL: empty Pareto front\n";
    exit 1
  end;
  (* bit-for-bit subsample check: re-evaluate every retained sample
     through the rebuild-per-candidate reference path *)
  let nth i =
    match Seq.uncons (Seq.drop i (candidates ())) with
    | Some (c, _) -> c
    | None -> assert false
  in
  let checked =
    List.map
      (fun (i, p) ->
        let reference =
          Lifecycle.Explorer.evaluate ~pool ~engine_reuse:false
            ~designs:[ design ]
            ~candidates:[ nth i ] ()
        in
        (i, compare reference [ p ] = 0))
      summary.Lifecycle.Explorer.s_samples
  in
  let ok = List.for_all snd checked in
  Printf.printf
    "subsample check (%d points vs rebuild-per-candidate reference): %b\n"
    (List.length checked) ok;
  if not ok then begin
    List.iter
      (fun (i, good) -> if not good then Printf.printf "  MISMATCH at candidate %d\n" i)
      checked;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* networked: N nodes sharing one CAN-like bus, arbitration jitter *)

let networked_nodes = ref 8

(* one fork-join control workload (adc → 2N filters → fusion → dac)
   spread over N processors that share a single bus — the distributed
   sensor/actuator layout of the paper's automotive target.  Scales to
   hundreds of nodes (--nodes). *)
let networked_setup ~nodes () =
  let n = max 2 nodes in
  let procs = List.init n (Printf.sprintf "N%d") in
  let time_per_word = 0.0002 in
  let arch = Arch.bus_topology ~time_per_word procs in
  let alg, durations =
    Aaa.Workloads.fork_join ~period:0.05 ~sensor_wcet:0.002 ~branch_wcet:0.004
      ~fusion_wcet:0.003 ~branches:(2 * n) ~operators:procs ()
  in
  let schedule = Aaa.Adequation.run ~algorithm:alg ~architecture:arch ~durations () in
  (n, arch, durations, schedule, time_per_word)

(* background CAN traffic: one high-priority chatter stream per third
   node, asynchronous to the control period so interference drifts
   across iterations.  Per-stream period grows with the stream count so
   aggregate background utilization stays ≈ 28 % at any N. *)
let networked_bus ~nodes ~time_per_word () =
  let chatterers = List.filter (fun i -> i mod 3 = 0) (List.init nodes Fun.id) in
  let period = 0.01 *. float_of_int (List.length chatterers) in
  let load =
    List.map
      (fun node ->
        Media.Load.periodic ~jitter_frac:0.3 ~node ~ident:(10 + node) ~words:4
          ~period ())
      chatterers
  in
  Media.Bus.make ~name:"bus" ~time_per_word ~frame_overhead:(10. *. time_per_word)
    ~max_wait:0.5 ~seed:77 ~load ()

let networked () =
  header "networked: N-node fork-join loop on one shared CAN-like bus";
  let nodes = !networked_nodes in
  let n, _arch, durations, schedule, time_per_word = networked_setup ~nodes () in
  Printf.printf "%d nodes on one bus: makespan %.4f s (period %g s), %d transfers/iter\n"
    n schedule.Sched.makespan
    (Alg.period schedule.Sched.algorithm)
    (List.length schedule.Sched.comm);
  let exe = Aaa.Codegen.generate schedule in
  let run bus_models =
    Exec.Machine.run
      ~config:
        {
          Exec.Machine.default_config with
          iterations = 60;
          law = Exec.Timing_law.Wcet;
          seed = 7;
          durations = Some durations;
          bus_models;
        }
      exe
  in
  (* per-iteration instant the last transfer settles, relative to its
     release — the communication tail the consumers actually see *)
  let comm_tail (trace : Exec.Machine.trace) =
    let tail = Array.make trace.Exec.Machine.iterations 0. in
    List.iter
      (fun (c : Exec.Machine.comm_exec) ->
        let k = c.Exec.Machine.ce_iteration in
        let rel =
          c.Exec.Machine.ce_finish -. (float_of_int k *. trace.Exec.Machine.period)
        in
        if rel > tail.(k) then tail.(k) <- rel)
      trace.Exec.Machine.comms;
    tail
  in
  let fixed = run [] in
  let bus_cfg = networked_bus ~nodes:n ~time_per_word () in
  let bussed = run [ ("bus", bus_cfg) ] in
  let t_fixed = comm_tail fixed and t_bus = comm_tail bussed in
  Printf.printf "comm tail, fixed durations: %s\n" (Numerics.Stats.summary t_fixed);
  Printf.printf "comm tail, arbitrated bus:  %s\n" (Numerics.Stats.summary t_bus);
  let spread a = Array.fold_left Float.max neg_infinity a -. Array.fold_left Float.min infinity a in
  Printf.printf "arbitration-induced jitter (tail spread): fixed %.6f s, bus %.6f s\n"
    (spread t_fixed) (spread t_bus);
  (match List.assoc_opt "bus" bussed.Exec.Machine.bus_log with
  | Some log ->
      let bg = List.filter (fun c -> c.Media.Bus.c_background) log in
      let horizon =
        float_of_int fixed.Exec.Machine.iterations *. fixed.Exec.Machine.period
      in
      let busy =
        List.fold_left (fun acc c -> acc +. (c.Media.Bus.c_finish -. c.Media.Bus.c_start))
          0. log
      in
      Printf.printf
        "bus log: %d frames (%d background), utilization \xe2\x89\x88 %.1f %% of the %g s horizon\n"
        (List.length log) (List.length bg) (100. *. busy /. horizon) horizon
  | None -> assert false);
  Printf.printf "order conformant under arbitration: %b\n"
    (Exec.Machine.order_conformant bussed);
  (* the exec Gantt shows the same jitter graphically *)
  ignore (Exec.Machine.order_conformant fixed);
  (* static bus-schedulability: the deployed config is clean, a forged
     overload is flagged *)
  let lint models = Verify.Media_rules.check ~schedule models in
  let clean = lint [ ("bus", bus_cfg) ] in
  Printf.printf "Media_rules on the deployed bus: %s\n" (Verify.Diag.summary clean);
  let overloaded =
    {
      bus_cfg with
      Media.Bus.b_load =
        [ Media.Load.periodic ~node:0 ~ident:1 ~words:60 ~period:0.001 () ];
    }
  in
  let flagged = lint [ ("bus", overloaded) ] in
  Printf.printf "Media_rules on a forged overload: %s\n" (Verify.Diag.summary flagged);
  List.iter
    (fun (d : Verify.Diag.t) ->
      if d.Verify.Diag.rule = "MEDIA001" then
        Printf.printf "  %s: %s\n" d.Verify.Diag.rule d.Verify.Diag.message)
    flagged

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* absint: the value-flow lint catching what a simulation run misses *)

(* A marginally unstable discrete loop x[n+1] = k·x[n] + u with k just
   above 1, its state annotated as Float32 for the target.  Any
   finite-horizon simulation reports a modest maximum; the abstract
   interpreter proves the loop unbounded and flags the overflow of the
   declared machine format before anything runs. *)
let absint_demo () =
  header "absint — static signal bounds vs a finite simulation";
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let module B = Dataflow.Block in
  let k = 1.02 and u = 1. and ts = 0.01 and horizon = 2.0 in
  let g = G.create () in
  let clock = G.add g (Dataflow.Eventlib.clock ~period:ts ()) in
  let src = G.add g (C.constant ~name:"u" [| u |]) in
  let sum = G.add g (B.with_format B.Float32 (C.sum ~name:"x" [| 1.; 1. |])) in
  let delay = G.add g (C.unit_delay ~name:"mem" [| 0. |]) in
  let fb = G.add g (C.gain ~name:"k" k) in
  G.connect_data g ~src:(src, 0) ~dst:(sum, 0);
  G.connect_data g ~src:(sum, 0) ~dst:(delay, 0);
  G.connect_data g ~src:(delay, 0) ~dst:(fb, 0);
  G.connect_data g ~src:(fb, 0) ~dst:(sum, 1);
  G.connect_event g ~src:(clock, 0) ~dst:(delay, 0);
  let eng = Sim.Engine.create g in
  Sim.Engine.add_probe eng ~name:"x" ~block:sum ~port:0;
  Sim.Engine.run ~t_end:horizon eng;
  let peak =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a x -> Float.max a (Float.abs x)) acc row)
      0.
      (Sim.Trace.values (Sim.Engine.probe eng "x"))
  in
  Printf.printf
    "simulated %g s (%d steps): max |x| = %.1f — far below the Float32 limit \
     (3.4e38), so the run looks healthy\n\n"
    horizon
    (int_of_float (horizon /. ts))
    peak;
  let result, diags = Verify.Flow_rules.check ~probes:[ ("x", (sum, 0)) ] g in
  Printf.printf "inferred bound on x: %s (fixpoint in %d sweeps)\n\n"
    (Dataflow.Interval.to_string (Verify.Absint.range result (sum, 0)))
    (Verify.Absint.iterations result);
  print_string (Verify.Diag.render diags);
  Printf.printf "%s\n" (Verify.Diag.summary diags)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("sync", sync);
    ("latency-sweep", latency_sweep);
    ("jitter-sweep", jitter_sweep);
    ("adequation-sweep", adequation_sweep);
    ("quantization", quantization);
    ("margins", margins);
    ("windup", windup);
    ("lifecycle", lifecycle);
    ("baseline", baseline);
    ("faults", faults);
    ("recovery", recovery);
    ("standby", standby);
    ("exploration", exploration);
    ("explore", explore);
    ("explore-scale", explore_scale);
    ("montecarlo", montecarlo);
    ("codegen-exec", codegen_exec);
    ("networked", networked);
    ("absint", absint_demo);
  ]

(* ------------------------------------------------------------------ *)
(* lint: run the Verify design-rule passes over the seed designs *)

let lint_targets () =
  let cond_design, cond_durations = conditioned_design () in
  let susp_nominal, susp_arch, susp_durations, _, _, _, _, _, _ = suspension_setup () in
  [
    ("dc_motor/single", dc_design (), Arch.single (), dc_durations ~frac:0.6 ());
    ( "dc_motor/duo",
      dc_design (),
      dc_two_proc (),
      dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 () );
    ("conditioned_loop", cond_design, Arch.single (), cond_durations);
    ("suspension", susp_nominal, susp_arch, susp_durations ());
  ]

let lint json_path strict =
  let results =
    List.map
      (fun (label, design, architecture, durations) ->
        let recovery =
          Exec.Recovery.make ~period:design.Lifecycle.Design.ts ()
        in
        let diags = Verify.run_all ~architecture ~durations ~recovery design in
        Printf.printf "== %s ==\n%s%s\n\n" label
          (Verify.Diag.render diags)
          (Verify.Diag.summary diags);
        (label, diags))
      (lint_targets ())
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let entries =
        List.concat_map
          (fun (label, diags) ->
            List.map
              (fun d ->
                Printf.sprintf "{\"design\": %S, \"diag\": %s}" label
                  (Verify.Diag.json_of d))
              (List.sort Verify.Diag.compare diags))
          results
      in
      let oc = open_out path in
      output_string oc
        (match entries with
        | [] -> "[]\n"
        | _ -> "[\n  " ^ String.concat ",\n  " entries ^ "\n]\n");
      close_out oc;
      Printf.printf "wrote %s\n" path);
  let all = List.concat_map snd results in
  Printf.printf "lint total: %s\n" (Verify.Diag.summary all);
  let gating =
    if strict then
      List.exists
        (fun (d : Verify.Diag.t) ->
          match d.Verify.Diag.severity with
          | Verify.Diag.Error | Verify.Diag.Warning -> true
          | Verify.Diag.Info -> false)
        all
    else Verify.Diag.has_errors all
  in
  if gating then exit 1

open Cmdliner

let runs_arg =
  let doc = "Seeds per grid cell for the $(b,explore) experiment." in
  Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc)

let nodes_arg =
  let doc = "Processor count for the $(b,networked) experiment." in
  Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc)

let candidates_arg =
  let doc = "Grid size for the $(b,explore-scale) experiment." in
  Arg.(value & opt int 10_000 & info [ "candidates" ] ~docv:"N" ~doc)

let run_all_experiments runs nodes candidates =
  explore_runs := runs;
  networked_nodes := nodes;
  explore_scale_target := candidates;
  List.iter (fun (_, f) -> f ()) experiments

let experiment_cmds =
  List.map
    (fun (name, f) ->
      let doc = Printf.sprintf "Run the %s experiment." name in
      Cmd.v (Cmd.info name ~doc)
        Term.(
          const (fun runs nodes candidates ->
              explore_runs := runs;
              networked_nodes := nodes;
              explore_scale_target := candidates;
              f ())
          $ runs_arg $ nodes_arg $ candidates_arg))
    experiments

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(const run_all_experiments $ runs_arg $ nodes_arg $ candidates_arg)

let json_arg =
  let doc = "Also write the diagnostics as a JSON array to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let strict_arg =
  let doc = "Exit non-zero on warnings too, not only on errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_cmd =
  let doc = "Statically check the seed designs against the Verify rule catalogue" in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const lint $ json_arg $ strict_arg)

let cmd =
  let doc = "Regenerate the paper's figures as measured experiments" in
  let default = Term.(const run_all_experiments $ runs_arg $ nodes_arg $ candidates_arg) in
  Cmd.group ~default
    (Cmd.info "experiments" ~doc)
    (lint_cmd :: all_cmd :: experiment_cmds)

let () = exit (Cmd.eval cmd)

(* Benchmark harness: one Bechamel test per experiment of DESIGN.md's
   index (measuring the machinery that regenerates each figure), plus
   the ablation benches for the design choices DESIGN.md calls out.

   Run with: dune exec bench/main.exe                                 *)

open Bechamel
open Bechamel.Toolkit

module M = Numerics.Matrix
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations

(* ------------------------------------------------------------------ *)
(* shared fixtures (built once; benchmarks measure the runs) *)

let dc_design =
  Lifecycle.Design.pid_loop ~name:"dc_motor"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. }
    ~ts:0.05 ~reference:1. ~horizon:2.0 ()

let dc_durations ?(operators = [ "P0" ]) ~frac () =
  let ts = 0.05 in
  let d = Dur.create () in
  let set op share =
    List.iter (fun operator -> Dur.set d ~op ~operator (share *. frac *. ts)) operators
  in
  set "reference" 0.05;
  set "sample_y" 0.2;
  set "pid" 0.6;
  set "hold_u" 0.15;
  d

let two_proc = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1" ]

let dc_impl =
  Lifecycle.Methodology.implement ~design:dc_design ~architecture:two_proc
    ~durations:(dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 ())
    ()

let single_impl =
  Lifecycle.Methodology.implement ~design:dc_design ~architecture:(Arch.single ())
    ~durations:(dc_durations ~frac:0.6 ())
    ()

let fj8_procs = List.init 4 (fun i -> Printf.sprintf "P%d" i)
let fj8, fj8_dur = Aaa.Workloads.fork_join ~branches:8 ~operators:fj8_procs ()
let fj8_arch = Arch.bus_topology ~latency:0.005 ~time_per_word:0.002 fj8_procs

(* ------------------------------------------------------------------ *)
(* experiment benches (one per figure/experiment id) *)

let bench_fig1_latencies =
  Test.make ~name:"fig1_latencies"
    (Staged.stage (fun () ->
         let trace =
           Exec.Machine.run
             ~config:{ Exec.Machine.default_config with iterations = 50 }
             dc_impl.Lifecycle.Methodology.executive
         in
         ignore (Exec.Machine.sampling_latencies trace)))

let bench_fig2_ideal_sim =
  Test.make ~name:"fig2_ideal_sim"
    (Staged.stage (fun () -> ignore (Lifecycle.Methodology.simulate_ideal dc_design)))

let bench_fig3_delay_graph_sim =
  Test.make ~name:"fig3_delay_graph_sim"
    (Staged.stage (fun () ->
         ignore (Lifecycle.Methodology.simulate_implemented dc_design single_impl)))

let bench_fig4_sequencing =
  Test.make ~name:"fig4_sequencing"
    (Staged.stage (fun () ->
         let built = dc_design.Lifecycle.Design.build () in
         ignore
           (Translator.Cosim.attach_delay_graph ~graph:built.Lifecycle.Design.graph
              ~schedule:single_impl.Lifecycle.Methodology.schedule
              ~binding:single_impl.Lifecycle.Methodology.binding ())))

let cond_schedule =
  (* mode + two conditioned branches, for the Fig. 5 machinery *)
  let alg = Alg.create ~name:"cond" ~period:0.1 in
  let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
  Alg.set_condition_source alg ~var:"m" (mode, 0);
  let _ =
    Alg.add_op alg ~name:"cheap" ~kind:Alg.Compute ~cond:{ Alg.var = "m"; value = 0 } ()
  in
  let _ =
    Alg.add_op alg ~name:"costly" ~kind:Alg.Compute ~cond:{ Alg.var = "m"; value = 1 } ()
  in
  let d = Dur.create () in
  Dur.set d ~op:"mode" ~operator:"P0" 0.002;
  Dur.set d ~op:"cheap" ~operator:"P0" 0.002;
  Dur.set d ~op:"costly" ~operator:"P0" 0.03;
  Aaa.Adequation.run ~algorithm:alg ~architecture:(Arch.single ()) ~durations:d ()

let bench_fig5_conditioning =
  Test.make ~name:"fig5_conditioning"
    (Staged.stage (fun () ->
         let exe = Aaa.Codegen.generate cond_schedule in
         let config =
           {
             Exec.Machine.default_config with
             iterations = 100;
             condition = (fun ~iteration ~var:_ -> iteration mod 2);
           }
         in
         ignore (Exec.Machine.run ~config exe)))

let bench_sync_block =
  Test.make ~name:"sync_block"
    (Staged.stage (fun () ->
         (* two clocks joined by a synchronization block, ~900 events *)
         let module G = Dataflow.Graph in
         let module E = Dataflow.Eventlib in
         let g = G.create () in
         let c1 = G.add g (E.clock ~period:0.01 ()) in
         let c2 = G.add g (E.clock ~period:0.013 ()) in
         let sync = G.add g (E.synchronization ~inputs:2 ()) in
         let count = G.add g (E.event_counter ()) in
         G.connect_event g ~src:(c1, 0) ~dst:(sync, 0);
         G.connect_event g ~src:(c2, 0) ~dst:(sync, 1);
         G.connect_event g ~src:(sync, 0) ~dst:(count, 0);
         let e = Sim.Engine.create g in
         Sim.Engine.run ~t_end:5. e))

let bench_latency_sweep_point =
  Test.make ~name:"latency_sweep"
    (Staged.stage (fun () ->
         ignore
           (Lifecycle.Methodology.evaluate ~design:dc_design ~architecture:(Arch.single ())
              ~durations:(dc_durations ~frac:0.5 ())
              ())))

let bench_jitter_sweep_point =
  Test.make ~name:"jitter_sweep"
    (Staged.stage (fun () ->
         let mode =
           Translator.Delay_graph.Jittered
             { law = Exec.Timing_law.Uniform; bcet_frac = 0.5; seed = 3 }
         in
         ignore (Lifecycle.Methodology.simulate_implemented ~mode dc_design single_impl)))

let bench_adequation =
  Test.make ~name:"adequation_sweep"
    (Staged.stage (fun () ->
         ignore
           (Aaa.Adequation.run ~algorithm:fj8 ~architecture:fj8_arch ~durations:fj8_dur ())))

let bench_lifecycle_suspension =
  (* one full lifecycle evaluation of a 4-state loop *)
  let plant =
    let sys = Control.Plants.quarter_car Control.Plants.default_quarter_car in
    Control.Lti.make ~domain:Control.Lti.Continuous ~a:sys.Control.Lti.a
      ~b:(M.block sys.Control.Lti.b 0 0 4 1) ~c:(M.identity 4) ~d:(M.zeros 4 1)
  in
  let k =
    Lifecycle.Calibrate.lqr_gain ~plant ~ts:0.05
      ~q:(M.scale 1e4 (M.identity 4))
      ~r:(M.of_arrays [| [| 1e-4 |] |])
      ()
  in
  let design =
    Lifecycle.Design.state_feedback_loop ~name:"suspension" ~plant ~x0:[| 0.05; 0.; 0.; 0. |]
      ~k ~ts:0.05 ~horizon:1.0 ()
  in
  let arch = Arch.bus_topology ~latency:0.001 ~time_per_word:0.0005 [ "w"; "b" ] in
  let durations =
    let d = Dur.create () in
    for i = 0 to 3 do
      Dur.set d ~op:(Printf.sprintf "sample_x%d" i) ~operator:"w" 0.0024
    done;
    Dur.set d ~op:"sfb" ~operator:"b" 0.0238;
    Dur.set d ~op:"hold_u" ~operator:"b" 0.0024;
    d
  in
  Test.make ~name:"lifecycle_suspension"
    (Staged.stage (fun () ->
         ignore (Lifecycle.Methodology.evaluate ~design ~architecture:arch ~durations ())))

let bench_codegen_exec =
  Test.make ~name:"codegen_exec"
    (Staged.stage (fun () ->
         let exe = Aaa.Codegen.generate dc_impl.Lifecycle.Methodology.schedule in
         ignore
           (Exec.Machine.run
              ~config:
                { Exec.Machine.default_config with iterations = 100; comm_jitter_frac = 0.3 }
              exe)))

let bench_failover_table =
  let fj8_nominal =
    Aaa.Adequation.run ~algorithm:fj8 ~architecture:fj8_arch ~durations:fj8_dur ()
  in
  Test.make ~name:"fault_failover_table"
    (Staged.stage (fun () ->
         ignore
           (Fault.Degrade.failover_table ~algorithm:fj8 ~architecture:fj8_arch
              ~durations:fj8_dur ~nominal:fj8_nominal ())))

let bench_injected_machine =
  let injection =
    Fault.Scenario.injection
      (Fault.Scenario.make ~name:"loss" ~seed:17
         [ Fault.Scenario.Message_loss { medium = None; prob = 0.2 } ])
      ~architecture:two_proc
  in
  Test.make ~name:"fault_injected_machine"
    (Staged.stage (fun () ->
         ignore
           (Exec.Machine.run
              ~config:{ Exec.Machine.default_config with iterations = 100; injection }
              dc_impl.Lifecycle.Methodology.executive)))

let bench_recovery_retransmission =
  let injection =
    Fault.Scenario.injection
      (Fault.Scenario.make ~name:"loss" ~seed:17
         [ Fault.Scenario.Message_loss { medium = None; prob = 0.2 } ])
      ~architecture:two_proc
  in
  let recovery = Exec.Recovery.make ~period:0.05 () in
  Test.make ~name:"recovery_retransmission"
    (Staged.stage (fun () ->
         ignore
           (Exec.Machine.run
              ~config:
                { Exec.Machine.default_config with iterations = 100; injection; recovery }
              dc_impl.Lifecycle.Methodology.executive)))

let bench_recovery_mode_switch =
  let injection =
    Fault.Scenario.injection
      (Fault.Scenario.make ~name:"failstop" ~seed:17
         [ Fault.Scenario.Processor_failstop { operator = "P1"; at = 1.0 } ])
      ~architecture:two_proc
  in
  let failover =
    Fault.Degrade.failover_executives
      (Fault.Degrade.failover_table ~algorithm:dc_impl.Lifecycle.Methodology.algorithm
         ~architecture:two_proc
         ~durations:(dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 ())
         ~nominal:dc_impl.Lifecycle.Methodology.schedule ())
  in
  let recovery = Exec.Recovery.make ~failover ~period:0.05 () in
  Test.make ~name:"recovery_mode_switch"
    (Staged.stage (fun () ->
         ignore
           (Exec.Machine.run
              ~config:
                { Exec.Machine.default_config with iterations = 100; injection; recovery }
              dc_impl.Lifecycle.Methodology.executive)))

let bench_standby_vote =
  let injection =
    Fault.Scenario.injection
      (Fault.Scenario.make ~name:"failstop" ~seed:17
         [ Fault.Scenario.Processor_failstop { operator = "P1"; at = 1.0 } ])
      ~architecture:two_proc
  in
  let table =
    Fault.Degrade.failover_table ~algorithm:dc_impl.Lifecycle.Methodology.algorithm
      ~architecture:two_proc
      ~durations:(dc_durations ~operators:[ "P0"; "P1" ] ~frac:0.6 ())
      ~nominal:dc_impl.Lifecycle.Methodology.schedule ()
  in
  let plan =
    match
      Fault.Degrade.standby_plan_for table
        ~nominal:dc_impl.Lifecycle.Methodology.schedule ~operator:"P1"
    with
    | Some p -> p
    | None -> failwith "standby_vote bench: no standby plan for P1"
  in
  let recovery = Exec.Recovery.make ~period:0.05 () in
  Test.make ~name:"standby_vote"
    (Staged.stage (fun () ->
         ignore
           (Exec.Standby.run
              ~config:
                { Exec.Machine.default_config with iterations = 100; injection; recovery }
              ~protects:"P1" ~standby:plan.Fault.Degrade.executive
              dc_impl.Lifecycle.Methodology.executive)))

(* ------------------------------------------------------------------ *)
(* ablation benches (design choices called out in DESIGN.md) *)

let bench_ablation_strategy_pressure =
  Test.make ~name:"ablation_adequation_pressure"
    (Staged.stage (fun () ->
         ignore
           (Aaa.Adequation.run ~strategy:Aaa.Adequation.Pressure ~algorithm:fj8
              ~architecture:fj8_arch ~durations:fj8_dur ())))

let bench_ablation_strategy_eft =
  Test.make ~name:"ablation_adequation_eft"
    (Staged.stage (fun () ->
         ignore
           (Aaa.Adequation.run ~strategy:Aaa.Adequation.Earliest_finish ~algorithm:fj8
              ~architecture:fj8_arch ~durations:fj8_dur ())))

let bench_ablation_refine =
  Test.make ~name:"ablation_adequation_refine"
    (Staged.stage (fun () ->
         let initial =
           Aaa.Adequation.run ~algorithm:fj8 ~architecture:fj8_arch ~durations:fj8_dur ()
         in
         ignore
           (Aaa.Adequation.refine ~iterations:50 ~algorithm:fj8 ~architecture:fj8_arch
              ~durations:fj8_dur ~initial ())))

let bench_sdx_roundtrip =
  let app =
    {
      Aaa.Sdx.algorithm = fj8;
      architecture = fj8_arch;
      durations = fj8_dur;
      pins = [];
    }
  in
  Test.make ~name:"sdx_roundtrip"
    (Staged.stage (fun () -> ignore (Aaa.Sdx.parse (Aaa.Sdx.print app))))

let bench_ablation_ode_rk4 =
  Test.make ~name:"ablation_engine_rk4"
    (Staged.stage (fun () ->
         ignore (Lifecycle.Methodology.simulate_ideal ~meth:Numerics.Ode.Rk4 dc_design)))

let bench_ablation_ode_rkf45 =
  Test.make ~name:"ablation_engine_rkf45"
    (Staged.stage (fun () ->
         ignore
           (Lifecycle.Methodology.simulate_ideal ~meth:Numerics.Ode.default_method dc_design)))

let bench_ablation_delay_static =
  Test.make ~name:"ablation_delay_static"
    (Staged.stage (fun () ->
         ignore
           (Lifecycle.Methodology.simulate_implemented ~mode:Translator.Delay_graph.Static_wcet
              dc_design single_impl)))

let bench_ablation_delay_jittered =
  Test.make ~name:"ablation_delay_jittered"
    (Staged.stage (fun () ->
         ignore
           (Lifecycle.Methodology.simulate_implemented
              ~mode:
                (Translator.Delay_graph.Jittered
                   { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed = 11 })
              dc_design single_impl)))

(* ------------------------------------------------------------------ *)
(* exploration-engine benches: one irregular-duration 32-candidate
   grid (seeds axis innermost, so cache hits and engine reuse both
   apply) through three paths:

   - explore_throughput: the streamed ordered map-reduce with
     per-domain engine reuse and a fresh cache per run (cold) — the
     headline candidates/sec number;
   - explore_throughput_warm: same pipeline against a shared
     pre-filled cache (every candidate replays, measuring the
     memo/reduce overhead floor);
   - explore_chunked_rebuild: the pre-map-reduce path — eager list
     through Pool.map, adequation + diagram + engine rebuilt for every
     candidate (engine_reuse:false) — the speedup baseline.

   All three produce bit-for-bit identical points
   (test/test_explore.ml enforces it); candidates/sec lands in the
   JSON dump via [explore_candidates]. *)

let explore_design =
  Lifecycle.Design.pid_loop ~name:"bench_dc"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. }
    ~ts:0.05 ~reference:1. ~horizon:1.0 ()

(* screening variant: design-space sweeps triage large grids with a
   short horizon, where per-candidate cost is build-dominated rather
   than run-dominated — the regime the engine-reuse path targets *)
let explore_screen_design =
  Lifecycle.Design.pid_loop ~name:"bench_dc_screen"
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. }
    ~ts:0.05 ~reference:1. ~horizon:0.25 ()

let explore_platforms =
  let platform label price architecture operators =
    let durations_of frac =
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
    in
    { Explore.Grid.label; price; architecture; durations_of }
  in
  [
    platform "mcu" 1.0 (Arch.single ()) [ "P0" ];
    platform "duo" 2.2 two_proc [ "P0"; "P1" ];
  ]

let explore_fractions = [ 0.2; 0.4; 0.6; 0.8 ]
let explore_seeds = List.init 16 (fun i -> 41 + i)

let explore_grid =
  Explore.Grid.candidates ~fractions:explore_fractions ~seeds:explore_seeds
    ~platforms:explore_platforms ()

let explore_grid_seq () =
  Explore.Grid.seq ~fractions:explore_fractions ~seeds:explore_seeds
    ~platforms:explore_platforms ()

(* the number of evaluations each explore bench performs per run —
   dump_json derives candidates/sec from it *)
let explore_candidates =
  let n = List.length explore_grid in
  [
    ("explore_throughput", n);
    ("explore_throughput_warm", n);
    ("explore_chunked_rebuild", n);
  ]

let explore_pool_par =
  Explore.Pool.create ~domains:(max 2 (Domain.recommended_domain_count ())) ()

let bench_explore_throughput =
  Test.make ~name:"explore_throughput"
    (Staged.stage (fun () ->
         (* fresh cache each run: the bench measures evaluation, not replay *)
         let cache = Explore.Cache.create () in
         ignore
           (Lifecycle.Explorer.evaluate_seq ~pool:explore_pool_par ~cache
              ~designs:[ explore_screen_design ]
              ~candidates:(explore_grid_seq ()) ())))

let explore_warm_cache = lazy (
  let cache = Explore.Cache.create () in
  ignore
    (Lifecycle.Explorer.evaluate_seq ~pool:explore_pool_par ~cache
       ~designs:[ explore_screen_design ]
       ~candidates:(explore_grid_seq ()) ());
  cache)

let bench_explore_throughput_warm =
  Test.make ~name:"explore_throughput_warm"
    (Staged.stage (fun () ->
         let cache = Lazy.force explore_warm_cache in
         ignore
           (Lifecycle.Explorer.evaluate_seq ~pool:explore_pool_par ~cache
              ~designs:[ explore_screen_design ]
              ~candidates:(explore_grid_seq ()) ())))

let bench_explore_chunked_rebuild =
  Test.make ~name:"explore_chunked_rebuild"
    (Staged.stage (fun () ->
         let cache = Explore.Cache.create () in
         ignore
           (Lifecycle.Explorer.evaluate ~pool:explore_pool_par ~cache
              ~engine_reuse:false ~designs:[ explore_screen_design ]
              ~candidates:explore_grid ())))

(* ------------------------------------------------------------------ *)
(* serve-batch benches: the same 32-scenario Monte-Carlo batch through
   one shared compiled engine (Serve.Batch: reseed + reset between
   scenarios) and through the per-scenario rebuild path the rest of
   the toolchain uses.  The gap is the compilation amortisation the
   batch service exists for; results are bit-for-bit equal
   (test/test_serve.ml enforces it). *)

let serve_impl =
  Lifecycle.Methodology.implement ~design:explore_design ~architecture:(Arch.single ())
    ~durations:(dc_durations ~frac:0.6 ())
    ()

let serve_seeds = List.init 32 (fun i -> 1000 + i)

let bench_serve_batch_shared =
  Test.make ~name:"serve_batch_shared"
    (Staged.stage (fun () ->
         let b = Serve.Batch.create ~design:explore_design ~implementation:serve_impl () in
         List.iter (fun seed -> ignore (Serve.Batch.cost b ~seed)) serve_seeds))

let bench_serve_batch_rebuild =
  Test.make ~name:"serve_batch_rebuild"
    (Staged.stage (fun () ->
         List.iter
           (fun seed ->
             let engine =
               Lifecycle.Methodology.simulate_implemented
                 ~mode:
                   (Translator.Delay_graph.Jittered
                      { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed })
                 explore_design serve_impl
             in
             ignore (explore_design.Lifecycle.Design.cost engine))
           serve_seeds))

(* session_cost: [Lifecycle.Session.cost] over 8 seeds on the serve
   workload's PID / DC-motor document on 3 ECUs over a CAN bus (ts
   0.04 s, 4 s horizon) — the co-simulation every Monte-Carlo run,
   robustness scenario and explored candidate pays for, on one
   compiled session (reseed + reset per seed). *)

let session_cost_document =
  "(lifecycle\n\
  \  (design (name serve_dc3) (ts 0.04) (horizon 4) (cost iae y 0 1.0))\n\
  \  (diagram\n\
  \    (block (name plant) (type lti) (plant dc-motor) (x0 0 0))\n\
  \    (block (name reference) (type const) (value 1))\n\
  \    (block (name sample_y) (type sample-hold) (width 1))\n\
  \    (block (name pid) (type pid) (kp 60) (ki 80) (kd 0) (ts 0.04))\n\
  \    (block (name hold_u) (type sample-hold) (width 1))\n\
  \    (link plant 0 sample_y 0) (link reference 0 pid 0) (link sample_y 0 pid 1)\n\
  \    (link pid 0 hold_u 0) (link hold_u 0 plant 0)\n\
  \    (members reference sample_y pid hold_u)\n\
  \    (clocked sample_y pid hold_u)\n\
  \    (probe y plant 0) (probe u hold_u 0))\n\
  \  (architecture (name platform3) (operator ecu0) (operator ecu1) (operator ecu2)\n\
  \    (bus (name can) (latency 0.0005) (rate 0.0004) (connects ecu0 ecu1 ecu2)))\n\
  \  (durations (wcet reference * 0.0006) (wcet sample_y ecu0 0.003)\n\
  \             (wcet pid * 0.006) (wcet hold_u ecu0 0.0024))\n\
  \  (pins (pin sample_y ecu0) (pin hold_u ecu0)))\n"

let session_cost_session =
  let f = Lifecycle.Diagram.parse session_cost_document in
  let design = f.Lifecycle.Diagram.design in
  let implementation =
    Lifecycle.Methodology.implement ~pins:f.Lifecycle.Diagram.pins ~design
      ~architecture:f.Lifecycle.Diagram.architecture
      ~durations:f.Lifecycle.Diagram.durations ()
  in
  Lifecycle.Session.create ~design ~implementation ()

let bench_session_cost =
  Test.make ~name:"session_cost"
    (Staged.stage (fun () ->
         for seed = 1000 to 1007 do
           ignore (Lifecycle.Session.cost session_cost_session ~seed)
         done))

(* ------------------------------------------------------------------ *)
(* simulation hot-loop micro-benches: the engine's two inner loops in
   isolation (event delivery and continuous integration), re-run on a
   prebuilt engine via reset.  CI tracks these against
   BENCH_BASELINE.json (scripts/compare_bench.sh). *)

let hot_event_engine =
  (* event-dense: two incommensurate clocks, a synchronization point, a
     divider and a discrete PID loop sampled by the fast clock — no
     continuous state, so the run is pure event-machinery. *)
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let module E = Dataflow.Eventlib in
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
  List.iter (fun b -> G.connect_event g ~src:(clock_fast, 0) ~dst:(b, 0)) [ sh_y; pid; sh_u ];
  G.connect_event g ~src:(clock_slow, 0) ~dst:(delay, 0);
  let e = Sim.Engine.create g in
  Sim.Engine.add_probe e ~name:"u" ~block:sh_u ~port:0;
  Sim.Engine.add_probe e ~name:"count" ~block:counter ~port:0;
  e

let bench_sim_hot_loop_events =
  Test.make ~name:"sim_hot_loop_events"
    (Staged.stage (fun () ->
         Sim.Engine.reset hot_event_engine;
         Sim.Engine.run ~t_end:10. hot_event_engine))

let hot_ode_engine =
  (* ODE-dense: a closed PID loop on a 2-state DC motor under RKF45 —
     the run is dominated by right-hand-side evaluations. *)
  let module G = Dataflow.Graph in
  let module C = Dataflow.Clib in
  let module E = Dataflow.Eventlib in
  let plant = Control.Plants.dc_motor Control.Plants.default_dc_motor in
  let ts = 0.05 in
  let g = G.create () in
  let p = G.add g (C.lti_continuous ~x0:[| 0.; 0. |] plant) in
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
  let e = Sim.Engine.create g in
  Sim.Engine.add_probe e ~name:"y" ~block:p ~port:0;
  e

let bench_sim_hot_loop_ode =
  Test.make ~name:"sim_hot_loop_ode"
    (Staged.stage (fun () ->
         Sim.Engine.reset hot_ode_engine;
         Sim.Engine.run ~t_end:5. hot_ode_engine))

(* ------------------------------------------------------------------ *)
(* media benches: CAN-like arbitration in isolation (hundreds of
   nodes) and through the executive.  CI tracks both against
   BENCH_BASELINE.json (scripts/compare_bench.sh). *)

let media_bus_cfg =
  (* 200 background nodes, mixed priorities and payloads, ~20 %
     aggregate utilization *)
  let nodes = 200 in
  let load =
    List.init nodes (fun i ->
        Media.Load.periodic ~jitter_frac:0.2 ~node:i
          ~ident:(if i mod 7 = 0 then i else 256 + i)
          ~words:(1 + (i mod 8))
          ~period:(0.5 *. float_of_int nodes /. 64.)
          ())
  in
  Media.Bus.make ~name:"bus" ~time_per_word:0.0001 ~frame_overhead:0.001 ~seed:42
    ~load ()

let bench_media_arbitration =
  Test.make ~name:"media_arbitration"
    (Staged.stage (fun () ->
         let b = Media.Bus.create media_bus_cfg in
         for k = 0 to 99 do
           ignore
             (Media.Bus.transmit b ~ident:300 ~node:(k mod 200)
                ~release:(0.01 *. float_of_int k)
                ~duration:0.0005)
         done;
         Media.Bus.drain b ~until:1.0))

let fj8_sched =
  Aaa.Adequation.run ~algorithm:fj8 ~architecture:fj8_arch ~durations:fj8_dur ()

let fj8_exe = Aaa.Codegen.generate fj8_sched

let contention_bus =
  Media.Bus.make ~name:"bus" ~time_per_word:0.002 ~frame_overhead:0.004 ~seed:11
    ~load:
      [
        Media.Load.periodic ~jitter_frac:0.3 ~node:0 ~ident:8 ~words:2
          ~period:0.05 ();
      ]
    ()

let bench_exec_bus_contention =
  Test.make ~name:"exec_bus_contention"
    (Staged.stage (fun () ->
         ignore
           (Exec.Machine.run
              ~config:
                {
                  Exec.Machine.default_config with
                  iterations = 20;
                  durations = Some fj8_dur;
                  bus_models = [ ("bus", contention_bus) ];
                }
              fj8_exe)))

(* a large multi-loop diagram for the value-flow analysis: each loop
   is source → sum → saturation → quantizer → delay → gain → back to
   the sum, so every cycle forces the fixpoint through widening and
   narrowing at the delay *)
let absint_graph =
  let g = Dataflow.Graph.create () in
  for i = 0 to 33 do
    let amplitude = 1. +. (0.1 *. float_of_int i) in
    let src = Dataflow.Graph.add g (Dataflow.Clib.constant [| amplitude |]) in
    let sum = Dataflow.Graph.add g (Dataflow.Clib.sum [| 1.; 1. |]) in
    let sat = Dataflow.Graph.add g (Dataflow.Clib.saturation ~lo:(-10.) ~hi:10. ()) in
    let quant = Dataflow.Graph.add g (Dataflow.Clib.quantizer ~step:0.01 ()) in
    let delay = Dataflow.Graph.add g (Dataflow.Clib.unit_delay [| 0. |]) in
    let fb = Dataflow.Graph.add g (Dataflow.Clib.gain 0.9) in
    Dataflow.Graph.connect_data g ~src:(src, 0) ~dst:(sum, 0);
    Dataflow.Graph.connect_data g ~src:(sum, 0) ~dst:(sat, 0);
    Dataflow.Graph.connect_data g ~src:(sat, 0) ~dst:(quant, 0);
    Dataflow.Graph.connect_data g ~src:(quant, 0) ~dst:(delay, 0);
    Dataflow.Graph.connect_data g ~src:(delay, 0) ~dst:(fb, 0);
    Dataflow.Graph.connect_data g ~src:(fb, 0) ~dst:(sum, 1)
  done;
  g

let bench_absint_fixpoint =
  Test.make ~name:"absint_fixpoint"
    (Staged.stage (fun () -> ignore (Verify.Absint.analyze absint_graph)))

(* ------------------------------------------------------------------ *)
(* Scaling curves over the networked fork-join workload (adc → 2N
   filters → fusion → dac on N processors sharing one bus, as in
   [experiments networked]).  Curves rather than points because this
   codebase's cliffs only show as curves.  Timed directly — the median
   of at least 3 runs and at least 0.5 s — since one large run
   outlasts the Bechamel quota. *)

let median_ns once =
  let time () =
    let t0 = Unix.gettimeofday () in
    once ();
    Unix.gettimeofday () -. t0
  in
  let rec collect acc count elapsed =
    if count >= 3 && elapsed >= 0.5 then acc
    else
      let t = time () in
      collect (t :: acc) (count + 1) (elapsed +. t)
  in
  let samples = Array.of_list (collect [] 0 0.) in
  Array.sort compare samples;
  samples.(Array.length samples / 2) *. 1e9

let networked n =
  let procs = List.init n (Printf.sprintf "N%d") in
  let architecture = Arch.bus_topology ~time_per_word:0.0002 procs in
  let algorithm, durations =
    Aaa.Workloads.fork_join ~period:0.05 ~sensor_wcet:0.002 ~branch_wcet:0.004
      ~fusion_wcet:0.003 ~branches:(2 * n) ~operators:procs ()
  in
  (architecture, algorithm, durations)

(* adequation_scaling: one adequation, N = 8, 16, 32, 64 — the route
   search's cliff *)
let adequation_scaling_ns n =
  let architecture, algorithm, durations = networked n in
  median_ns (fun () -> ignore (Aaa.Adequation.run ~algorithm ~architecture ~durations ()))

(* exec_networked_scaling: [Exec.Machine.run] alone, 60 iterations over
   the bus loaded with one chatter stream per third node at about 28 %
   background utilization, N = 8, 16, 32 *)
let exec_networked_scaling_ns n =
  let architecture, algorithm, durations = networked n in
  let exe = Aaa.Codegen.generate (Aaa.Adequation.run ~algorithm ~architecture ~durations ()) in
  let chatterers = List.filter (fun i -> i mod 3 = 0) (List.init n Fun.id) in
  let load =
    List.map
      (fun node ->
        Media.Load.periodic ~jitter_frac:0.3 ~node ~ident:(10 + node) ~words:4
          ~period:(0.01 *. float_of_int (List.length chatterers))
          ())
      chatterers
  in
  let bus =
    Media.Bus.make ~name:"bus" ~time_per_word:0.0002 ~frame_overhead:0.002 ~max_wait:0.5
      ~seed:7 ~load ()
  in
  let config =
    {
      Exec.Machine.default_config with
      iterations = 60;
      durations = Some durations;
      bus_models = [ ("bus", bus) ];
    }
  in
  median_ns (fun () -> ignore (Exec.Machine.run ~config exe))

let curves =
  List.concat_map
    (fun (prefix, points, ns) ->
      List.map (fun n -> (Printf.sprintf "%s_n%d" prefix n, fun () -> ns n)) points)
    [
      ("adequation_scaling", [ 8; 16; 32; 64 ], adequation_scaling_ns);
      ("exec_networked_scaling", [ 8; 16; 32 ], exec_networked_scaling_ns);
    ]

(* ------------------------------------------------------------------ *)

let tests =
  [
    bench_fig1_latencies;
    bench_fig2_ideal_sim;
    bench_fig3_delay_graph_sim;
    bench_fig4_sequencing;
    bench_fig5_conditioning;
    bench_sync_block;
    bench_latency_sweep_point;
    bench_jitter_sweep_point;
    bench_adequation;
    bench_lifecycle_suspension;
    bench_codegen_exec;
    bench_failover_table;
    bench_injected_machine;
    bench_recovery_retransmission;
    bench_recovery_mode_switch;
    bench_standby_vote;
    bench_ablation_strategy_pressure;
    bench_ablation_strategy_eft;
    bench_ablation_refine;
    bench_sdx_roundtrip;
    bench_ablation_ode_rk4;
    bench_ablation_ode_rkf45;
    bench_ablation_delay_static;
    bench_ablation_delay_jittered;
    bench_explore_throughput;
    bench_explore_throughput_warm;
    bench_explore_chunked_rebuild;
    bench_serve_batch_shared;
    bench_serve_batch_rebuild;
    bench_session_cost;
    bench_sim_hot_loop_events;
    bench_sim_hot_loop_ode;
    bench_media_arbitration;
    bench_exec_bus_contention;
    bench_absint_fixpoint;
  ]

(* --json FILE: also dump [{"name": ..., "time_ns": ...}, ...] so CI
   and scripts can track the numbers without scraping the table.
   --only SUBSTRING: run only the benches whose name contains
   SUBSTRING (e.g. --only sim_hot_loop for the CI regression gate). *)
let find_flag flag =
  let rec find = function
    | f :: value :: _ when f = flag -> Some value
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let json_path = find_flag "--json"

let selected name =
  match find_flag "--only" with
  | None -> true
  | Some fragment ->
      let nh = String.length name and nn = String.length fragment in
      let rec go i = i + nn <= nh && (String.sub name i nn = fragment || go (i + 1)) in
      nn = 0 || go 0

let tests = List.filter (fun t -> selected (Test.Elt.name (List.hd (Test.elements t)))) tests

let dump_json results =
  match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let host =
        Printf.sprintf "\"nproc\": %d, \"ocaml\": %S" (Domain.recommended_domain_count ())
          Sys.ocaml_version
      in
      let row (name, t_ns) =
        (* every row names the host it ran on, explore benches also
           report throughput; extra fields after time_ns are ignored by
           scripts/compare_bench.sh *)
        let throughput =
          match List.assoc_opt name explore_candidates with
          | Some n when t_ns > 0. ->
              Printf.sprintf ", \"candidates_per_sec\": %.1f" (float_of_int n /. (t_ns /. 1e9))
          | _ -> ""
        in
        Printf.sprintf "  {\"name\": %S, \"time_ns\": %.1f%s, %s}" name t_ns throughput host
      in
      output_string oc
        ("[\n" ^ String.concat ",\n" (List.map row (List.rev results)) ^ "\n]\n");
      close_out oc;
      Printf.printf "\nwrote %d benchmark results to %s\n" (List.length results) path

let pretty_ns t_ns =
  if t_ns >= 1e9 then Printf.sprintf "%.3f  s" (t_ns /. 1e9)
  else if t_ns >= 1e6 then Printf.sprintf "%.3f ms" (t_ns /. 1e6)
  else if t_ns >= 1e3 then Printf.sprintf "%.3f us" (t_ns /. 1e3)
  else Printf.sprintf "%.1f ns" t_ns

let () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let results = ref [] in
  Printf.printf "%-34s %16s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun test ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let raw = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun _label samples ->
          let est = Analyze.one ols Instance.monotonic_clock samples in
          match Analyze.OLS.estimates est with
          | Some [ t_ns ] ->
              let pretty = pretty_ns t_ns in
              let r2 =
                match Analyze.OLS.r_square est with
                | Some r -> Printf.sprintf "%.4f" r
                | None -> "-"
              in
              results := (name, t_ns) :: !results;
              Printf.printf "%-34s %16s %10s\n" name pretty r2
          | Some _ | None -> Printf.printf "%-34s %16s %10s\n" name "(no estimate)" "-")
        raw)
    tests;
  List.iter
    (fun (name, ns) ->
      if selected name then begin
        let t_ns = ns () in
        results := (name, t_ns) :: !results;
        Printf.printf "%-34s %16s %10s\n%!" name (pretty_ns t_ns) "-"
      end)
    curves;
  dump_json !results

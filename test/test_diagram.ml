open Helpers

let sample =
  {|
(lifecycle
  (design (name file_loop) (ts 0.05) (horizon 5)
          (cost iae y 0 1.0))
  (diagram
    (block (name plant) (type lti) (plant first-order 0.5 1) (x0 0))
    (block (name reference) (type const) (value 1))
    (block (name sample_y) (type sample-hold) (width 1))
    (block (name pid) (type pid) (kp 4) (ki 8) (kd 0) (ts 0.05))
    (block (name hold_u) (type sample-hold) (width 1))
    (link plant 0 sample_y 0)
    (link reference 0 pid 0)
    (link sample_y 0 pid 1)
    (link pid 0 hold_u 0)
    (link hold_u 0 plant 0)
    (members reference sample_y pid hold_u)
    (clocked sample_y pid hold_u)
    (probe y plant 0))
  (architecture (name solo) (operator P0))
  (durations
    (wcet reference P0 0.001)
    (wcet sample_y P0 0.004)
    (wcet pid P0 0.012)
    (wcet hold_u P0 0.004)))
|}

(* runs [f] on explicit 1- and 2-domain pools, checks that the two
   results are bit-for-bit equal and returns one of them, so pooled
   code is exercised on 2 domains even on a single-core host *)
let on_1_and_2_domains msg f =
  let one = Explore.Pool.with_pool ~domains:1 f in
  let two = Explore.Pool.with_pool ~domains:2 f in
  check_true (msg ^ ": 1 and 2 domains bit for bit")
    (Marshal.to_string one [ Marshal.No_sharing ]
    = Marshal.to_string two [ Marshal.No_sharing ]);
  one

let diagram_tests =
  [
    test "lifecycle file parses and the ideal simulation tracks" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let e = Lifecycle.Methodology.simulate_ideal file.Lifecycle.Diagram.design in
        let sse =
          Control.Metrics.steady_state_error ~reference:1.
            (Sim.Engine.probe_component e "y" 0)
        in
        check_true "tracks" (Float.abs sse < 0.02));
    test "lifecycle file runs the full methodology" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let c =
          Lifecycle.Methodology.evaluate ~design:file.Lifecycle.Diagram.design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        check_true "degradation positive"
          (c.Lifecycle.Methodology.implemented_cost
          >= c.Lifecycle.Methodology.ideal_cost));
    test "builds from a file are deterministic" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let b1 = file.Lifecycle.Diagram.design.Lifecycle.Design.build () in
        let b2 = file.Lifecycle.Diagram.design.Lifecycle.Design.build () in
        check_true "same members" (b1.Lifecycle.Design.members = b2.Lifecycle.Design.members));
    test "explicit state-space matrices accepted" (fun () ->
        let file =
          Lifecycle.Diagram.parse
            {|(lifecycle
                (design (name x) (ts 0.1) (horizon 1) (cost ise y 0))
                (diagram
                  (block (name plant) (type lti) (x0 1)
                         (a (-1)) (b (1)) (c (1)) (d (0)))
                  (block (name sample_y) (type sample-hold) (width 1))
                  (block (name sfb) (type state-feedback) (k 2))
                  (block (name hold_u) (type sample-hold) (width 1))
                  (link plant 0 sample_y 0)
                  (link sample_y 0 sfb 0)
                  (link sfb 0 hold_u 0)
                  (link hold_u 0 plant 0)
                  (members sample_y sfb hold_u)
                  (probe y plant 0))
                (architecture (name solo) (operator P0)))|}
        in
        ignore (Lifecycle.Methodology.simulate_ideal file.Lifecycle.Diagram.design));
    test "unknown block type rejected" (fun () ->
        match
          Lifecycle.Diagram.parse
            {|(lifecycle
                (design (name x) (ts 0.1) (horizon 1) (cost iae y 0 1))
                (diagram (block (name b) (type warp-drive)) (probe y b 0))
                (architecture (name solo) (operator P0)))|}
        with
        | exception Failure msg -> check_true "mentions type" (contains msg "warp-drive")
        | _ -> Alcotest.fail "expected Failure");
    test "cost must reference a declared probe" (fun () ->
        match
          Lifecycle.Diagram.parse
            {|(lifecycle
                (design (name x) (ts 0.1) (horizon 1) (cost iae ghost 0 1))
                (diagram
                  (block (name c) (type const) (value 1))
                  (block (name s) (type sample-hold) (width 1))
                  (link c 0 s 0)
                  (members s)
                  (probe y c 0))
                (architecture (name solo) (operator P0)))|}
        with
        | exception Failure msg -> check_true "mentions probe" (contains msg "ghost")
        | _ -> Alcotest.fail "expected Failure");
    test "bad link rejected at parse time" (fun () ->
        match
          Lifecycle.Diagram.parse
            {|(lifecycle
                (design (name x) (ts 0.1) (horizon 1) (cost iae y 0 1))
                (diagram
                  (block (name c) (type const) (value 1))
                  (link c 0 nowhere 0)
                  (members c)
                  (probe y c 0))
                (architecture (name solo) (operator P0)))|}
        with
        | exception Failure msg -> check_true "mentions block" (contains msg "nowhere")
        | _ -> Alcotest.fail "expected Failure");
    test "shipped lifecycle files load and evaluate" (fun () ->
        let try_file name =
          let candidates =
            [
              "../examples/data/" ^ name;
              "examples/data/" ^ name;
              "../../../examples/data/" ^ name;
            ]
          in
          match List.find_opt Sys.file_exists candidates with
          | None -> ()
          | Some path ->
              let file = Lifecycle.Diagram.load path in
              let c =
                Lifecycle.Methodology.evaluate ~pins:file.Lifecycle.Diagram.pins
                  ~design:file.Lifecycle.Diagram.design
                  ~architecture:file.Lifecycle.Diagram.architecture
                  ~durations:file.Lifecycle.Diagram.durations ()
              in
              check_true (name ^ " finite")
                (Float.is_finite c.Lifecycle.Methodology.implemented_cost)
        in
        try_file "dc_motor.lcs";
        try_file "cruise.lcs");
  ]

let montecarlo_tests =
  [
    test "jittered costs lie between ideal and the WCET-static bound" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let design = file.Lifecycle.Diagram.design in
        let impl =
          Lifecycle.Methodology.implement ~design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        let ideal = design.Lifecycle.Design.cost (Lifecycle.Methodology.simulate_ideal design) in
        let s =
          on_1_and_2_domains "monte-carlo" (fun pool ->
              Lifecycle.Montecarlo.run ~runs:8 ~pool ~design ~implementation:impl ())
        in
        check_int "all runs" 8 (Array.length s.Lifecycle.Montecarlo.costs);
        check_true "above ideal" (s.Lifecycle.Montecarlo.cmin >= ideal -. 1e-9);
        check_true "below static bound"
          (s.Lifecycle.Montecarlo.cmax <= s.Lifecycle.Montecarlo.static_cost +. 1e-9);
        check_true "p95 ordered"
          (s.Lifecycle.Montecarlo.p95 <= s.Lifecycle.Montecarlo.cmax +. 1e-12));
    test "deterministic for a fixed base seed" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let design = file.Lifecycle.Diagram.design in
        let impl =
          Lifecycle.Methodology.implement ~design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        let run () =
          on_1_and_2_domains "monte-carlo" (fun pool ->
              Lifecycle.Montecarlo.run ~runs:4 ~pool ~design ~implementation:impl ())
        in
        let s1 = run () in
        let s2 = run () in
        check_vec ~eps:0. "identical" s1.Lifecycle.Montecarlo.costs
          s2.Lifecycle.Montecarlo.costs);
    test "run count validated" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let impl =
          Lifecycle.Methodology.implement ~design:file.Lifecycle.Diagram.design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        check_raises_invalid "runs" (fun () ->
            ignore
              (Lifecycle.Montecarlo.run ~runs:0 ~design:file.Lifecycle.Diagram.design
                 ~implementation:impl ())));
  ]

let report_tests =
  [
    test "markdown report contains every section" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let c =
          Lifecycle.Methodology.evaluate ~design:file.Lifecycle.Diagram.design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        let mc =
          on_1_and_2_domains "monte-carlo" (fun pool ->
              Lifecycle.Montecarlo.run ~runs:3 ~pool ~design:file.Lifecycle.Diagram.design
                ~implementation:c.Lifecycle.Methodology.implementation ())
        in
        let trace =
          Lifecycle.Methodology.execute file.Lifecycle.Diagram.design
            c.Lifecycle.Methodology.implementation
        in
        let doc =
          Lifecycle.Report.markdown ~montecarlo:mc ~trace file.Lifecycle.Diagram.design c
        in
        List.iter
          (fun needle -> check_true needle (contains doc needle))
          [
            "# Lifecycle report";
            "## Cost comparison";
            "## Static temporal model";
            "## Planned schedule";
            "## Monte-Carlo cost distribution";
            "## Measured execution";
            "Order conformant";
          ]);
    test "latency CSV has one row per iteration" (fun () ->
        let file = Lifecycle.Diagram.parse sample in
        let impl =
          Lifecycle.Methodology.implement ~design:file.Lifecycle.Diagram.design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:file.Lifecycle.Diagram.durations ()
        in
        let trace =
          Lifecycle.Methodology.execute
            ~config:{ Exec.Machine.default_config with iterations = 7 }
            file.Lifecycle.Diagram.design impl
        in
        let csv = Exec.Machine.latencies_csv trace in
        let lines = String.split_on_char '\n' (String.trim csv) in
        check_int "header + 7 rows" 8 (List.length lines);
        check_true "sensor column" (contains (List.hd lines) "Ls_sample_y");
        check_true "actuator column" (contains (List.hd lines) "La_hold_u"));
  ]

let sweep_tests =
  let file () = Lifecycle.Diagram.parse sample in
  let durations_of fraction =
    let d = Aaa.Durations.create () in
    let ts = 0.05 in
    let set op share = Aaa.Durations.set d ~op ~operator:"P0" (share *. fraction *. ts) in
    set "reference" 0.05;
    set "sample_y" 0.2;
    set "pid" 0.6;
    set "hold_u" 0.15;
    d
  in
  [
    test "latency sweep is monotone for a stable loop" (fun () ->
        let file = file () in
        let points =
          on_1_and_2_domains "latency sweep" (fun pool ->
              Lifecycle.Sweep.latency ~fractions:[ 0.2; 0.5; 0.9 ] ~pool
                ~design:file.Lifecycle.Diagram.design
                ~architecture:file.Lifecycle.Diagram.architecture ~durations_of ())
        in
        check_int "3 points" 3 (List.length points);
        let costs = List.map (fun p -> p.Lifecycle.Sweep.implemented_cost) points in
        check_true "monotone" (List.sort compare costs = costs);
        List.iter
          (fun p ->
            check_true "above ideal"
              (p.Lifecycle.Sweep.implemented_cost >= p.Lifecycle.Sweep.ideal_cost -. 1e-9))
          points);
    test "jitter sweep: WCET point matches the static co-simulation" (fun () ->
        let file = file () in
        let impl =
          Lifecycle.Methodology.implement ~design:file.Lifecycle.Diagram.design
            ~architecture:file.Lifecycle.Diagram.architecture
            ~durations:(durations_of 0.9) ()
        in
        let points =
          on_1_and_2_domains "jitter sweep" (fun pool ->
              Lifecycle.Sweep.jitter ~bcet_fracs:[ 1.0; 0.5 ] ~pool
                ~design:file.Lifecycle.Diagram.design ~implementation:impl ())
        in
        (match points with
        | [ wcet_point; jittered ] ->
            let static =
              file.Lifecycle.Diagram.design.Lifecycle.Design.cost
                (Lifecycle.Methodology.simulate_implemented file.Lifecycle.Diagram.design
                   impl)
            in
            check_float ~eps:1e-12 "wcet point" static
              wcet_point.Lifecycle.Sweep.implemented_cost;
            check_true "jittered below WCET"
              (jittered.Lifecycle.Sweep.implemented_cost
              <= wcet_point.Lifecycle.Sweep.implemented_cost +. 1e-9)
        | _ -> Alcotest.fail "expected two points"));
    test "instability threshold is none for a gentle loop" (fun () ->
        let file = file () in
        check_true "stable throughout"
          (Lifecycle.Sweep.instability_threshold ~design:file.Lifecycle.Diagram.design
             ~architecture:file.Lifecycle.Diagram.architecture ~durations_of ()
          = None));
    test "instability threshold found for an aggressive loop" (fun () ->
        let design =
          Lifecycle.Design.pid_loop ~name:"aggressive"
            ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
            ~x0:[| 0.; 0. |]
            ~gains:{ Control.Pid.kp = 100.; ki = 150.; kd = 0. }
            ~ts:0.05 ~reference:1. ~horizon:10. ()
        in
        match
          Lifecycle.Sweep.instability_threshold ~design
            ~architecture:(Aaa.Architecture.single ())
            ~durations_of ()
        with
        | Some f ->
            (* the margins experiment locates this near 0.64–0.8 of Ts *)
            check_true "plausible range" (f > 0.4 && f < 0.95)
        | None -> Alcotest.fail "expected a threshold");
  ]

let suites =
  [
    ("lifecycle.diagram", diagram_tests);
    ("lifecycle.montecarlo", montecarlo_tests);
    ("lifecycle.report", report_tests);
    ("lifecycle.sweep", sweep_tests);
  ]

let () =
  Alcotest.run "scilife"
    (Test_numerics.suites @ Test_control.suites @ Test_freq.suites
   @ Test_dataflow.suites @ Test_sim.suites @ Test_aaa.suites @ Test_adequation_oracle.suites @ Test_exec.suites
   @ Test_machine_oracle.suites
   @ Test_translator.suites @ Test_lifecycle.suites @ Test_hybrid.suites
   @ Test_props.suites @ Test_sdx.suites @ Test_diagram.suites @ Test_cgen.suites
   @ Test_fault.suites @ Test_explore.suites @ Test_verify.suites
   @ Test_recovery.suites @ Test_sim_perf.suites @ Test_media.suites
   @ Test_serve.suites @ Test_absint.suites)

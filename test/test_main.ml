let () =
  Alcotest.run "gps"
    (Test_graph_suite.suite @ Test_regex_suite.suite @ Test_automata_suite.suite
   @ Test_query_suite.suite @ Test_learning_suite.suite @ Test_interactive_suite.suite
   @ Test_viz_suite.suite @ Test_core_suite.suite @ Test_extensions_suite.suite @ Test_extensions2_suite.suite @ Test_extensions3_suite.suite @ Test_extensions4_suite.suite @ Test_extensions5_suite.suite @ Test_extensions6_suite.suite @ Test_extensions7_suite.suite @ Test_integration_suite.suite @ Test_lstar_suite.suite @ Test_coverage_suite.suite @ Test_oracle_suite.suite @ Test_invariants_suite.suite @ Test_server_suite.suite @ Test_obs_suite.suite
   @ Test_resilience_suite.suite @ Test_workload_suite.suite
   @ Test_introspection_suite.suite @ Test_ooc_suite.suite @ Test_runtime_suite.suite
   @ Test_durability_suite.suite)

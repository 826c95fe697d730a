(* Aggregates every module's suites into one alcotest runner. *)

let () =
  Alcotest.run "localcert"
    (List.concat [ Test_util.suite; Test_graph.suite; Test_logic.suite; Test_automata.suite; Test_treedepth.suite; Test_kernel.suite; Test_schemes.suite; Test_td_schemes.suite; Test_lowerbound.suite; Test_uop.suite; Test_radius.suite; Test_lcl.suite; Test_transform.suite; Test_word.suite; Test_dga.suite; Test_treewidth.suite; Test_io.suite; Test_heuristic.suite; Test_robustness.suite; Test_extra.suite; Test_engine.suite; Test_vcompile.suite; Test_runtime.suite; Test_golden.suite; Test_incremental.suite; Test_churn.suite; Test_bitstring.suite; Test_csr.suite; Test_obs.suite; Test_tracer.suite; Test_serve.suite ])

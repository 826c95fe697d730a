(* Tests for elimination trees, the exact treedepth solver, and the
   cops-and-robber game. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let elimination_basics () =
  (* Figure 1: P7 with the balanced model *)
  let model = Elimination.of_path 7 in
  let g = Gen.path 7 in
  check "is model" true (Elimination.is_model model g);
  check_int "height 3 (paper's depth 2 in edges)" 3 (Elimination.height model);
  check_int "root is the middle" 3 (Elimination.root model);
  let depth = Elimination.depth model in
  check_int "root depth 1" 1 depth.(3);
  Alcotest.(check (list int)) "ancestors of 0" [ 0; 1; 3 ]
    (Elimination.ancestors model 0);
  Alcotest.(check (list int)) "subtree of 1" [ 0; 1; 2 ]
    (Elimination.subtree model 1);
  check "ancestor reflexive" true (Elimination.is_ancestor model ~anc:1 ~desc:1);
  check "1 ancestor of 0" true (Elimination.is_ancestor model ~anc:1 ~desc:0);
  check "0 not ancestor of 1" false (Elimination.is_ancestor model ~anc:0 ~desc:1)

let elimination_validation () =
  check "cycle rejected" true
    (try ignore (Elimination.make ~parent:[| 1; 0 |]); false
     with Invalid_argument _ -> true);
  check "self-parent rejected" true
    (try ignore (Elimination.make ~parent:[| 0 |]); false
     with Invalid_argument _ -> true);
  (* identity model of a star *)
  let star_model = Elimination.make ~parent:[| -1; 0; 0; 0 |] in
  check "star model" true (Elimination.is_model star_model (Gen.star 4));
  (* a bad model: path 0-1-2 with 1 and 2 siblings under 0 *)
  let bad = Elimination.make ~parent:[| -1; 0; 0 |] in
  check "bad model detected" false (Elimination.is_model bad (Gen.path 3))

let path_models_optimal () =
  for n = 1 to 40 do
    let model = Elimination.of_path n in
    check "model" true (Elimination.is_model model (Gen.path n));
    check_int
      (Printf.sprintf "P%d height" n)
      (Exact.path_treedepth n)
      (Elimination.height model)
  done

let cycle_models () =
  for n = 3 to 20 do
    let model = Elimination.of_cycle n in
    check "model" true (Elimination.is_model model (Gen.cycle n));
    check "height within closed form" true
      (Elimination.height model <= Exact.cycle_treedepth n)
  done

let binary_tree_model () =
  for h = 0 to 4 do
    let model = Elimination.of_complete_binary_tree ~h in
    check "model" true
      (Elimination.is_model model (Gen.complete_binary_tree h));
    check_int "height" (h + 1) (Elimination.height model)
  done

let centroid_models () =
  let rng = Rng.make 63 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 25 in
    let g = Gen.random_tree rng n in
    let model = Elimination.centroid_of_tree g in
    check "model" true (Elimination.is_model model g);
    check "logarithmic height" true
      (Elimination.height model <= Combin.ceil_log2 (n + 1) + 1)
  done

let coherence () =
  let g = Gen.path 7 in
  let model = Elimination.of_path 7 in
  check "balanced path model coherent" true (Elimination.is_coherent model g);
  (* build an incoherent model of P4: 3 under 0 though 3's subtree
     only touches 2 -- parents: 1 root; 0 under 1; 2 under 0... craft:
     P4 edges 0-1,1-2,2-3. Model: 0 root, 1 under 0, 2 under 1, 3
     under... make 3 a child of 1 (3 adj only 2, not 1's other
     descendants? subtree(3) = {3}, 3-1 not an edge -> incoherent but
     still a model? 3's ancestors must include 2. Use: root 0, child 1,
     child 2 under 1, child 3 under 2 = coherent chain.  For an
     incoherent one use P3 path 0-1-2 with model root 1, 0 under 1, 2
     under 0: 2's ancestors are 0,1 but 2-0 not an edge -> not even a
     model.  Incoherent-but-model: graph star with center 0, leaves
     1,2; model: root 0, 1 under 0, 2 under 1: 2's ancestors {1,0}, its
     only edge 2-0: fine, a model; child 1 of 0: subtree {1,2} touches
     0? 1-0 is an edge: coherent at 0. child 2 of 1: subtree {2}
     touches 1? 2-1 not an edge -> incoherent. *)
  let star3 = Gen.star 3 in
  let chain = Elimination.make ~parent:[| -1; 0; 1 |] in
  check "chain is model of star" true (Elimination.is_model chain star3);
  check "chain incoherent" false (Elimination.is_coherent chain star3);
  let fixed = Elimination.coherentize chain star3 in
  check "coherentized" true (Elimination.is_coherent fixed star3);
  check "still model" true (Elimination.is_model fixed star3);
  check "height no worse" true
    (Elimination.height fixed <= Elimination.height chain)

let coherentize_random () =
  let rng = Rng.make 11 in
  for _ = 1 to 20 do
    let n = 4 + Rng.int rng 12 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng 5) in
    let model = Exact.optimal_model g in
    let fixed = Elimination.coherentize model g in
    check "model preserved" true (Elimination.is_model fixed g);
    check "coherent" true (Elimination.is_coherent fixed g);
    check "height preserved or better" true
      (Elimination.height fixed <= Elimination.height model)
  done

(* The restart loop that predates the incremental repair, kept as the
   reference: rescan every (vertex, child) pair after each repair and
   fix the first violation found. *)
let coherentize_reference (t : Elimination.t) g =
  let parent = Array.copy t.Elimination.parent in
  let rec fix () =
    let tree = { Elimination.parent } in
    let violation =
      List.find_map
        (fun v ->
          List.find_map
            (fun w ->
              let sub = Elimination.subtree tree w in
              if List.exists (fun x -> Graph.mem_edge g x v) sub then None
              else Some (v, w, sub))
            (Elimination.children tree v))
        (List.init (Elimination.n tree) Fun.id)
    in
    match violation with
    | None -> ()
    | Some (v, w, sub) ->
        let rec lowest u =
          if List.exists (fun x -> Graph.mem_edge g x u) sub then u
          else lowest parent.(u)
        in
        parent.(w) <- lowest parent.(v);
        fix ()
  in
  fix ();
  parent

(* Models that need repairs: the heuristic's separator chains, and
   chain models (any linear order of the vertices is a model of any
   graph, and a random one is almost never coherent). *)
let qcheck_coherentize_vs_reference =
  QCheck.Test.make ~name:"coherentize = restart-loop reference" ~count:200
    QCheck.(triple (int_range 2 60) bool int)
    (fun (n, chain, seed) ->
      let r = Rng.make seed in
      let g = Gen.random_connected r ~n ~extra_edges:(Rng.int r (2 * n)) in
      let model =
        if chain then begin
          let order = Rng.permutation r n in
          let parent = Array.make n (-1) in
          for i = 1 to n - 1 do
            parent.(order.(i)) <- order.(i - 1)
          done;
          Elimination.make ~parent
        end
        else Heuristic.model ~exact_cutoff:4 g
      in
      (Elimination.coherentize model g).Elimination.parent
      = coherentize_reference model g)

(* The differential above means something only if its models need
   repairs: most chain models over these graphs do. *)
let chain_models_need_repairs () =
  let r = Rng.make 3 and incoherent = ref 0 in
  for _ = 1 to 50 do
    let n = 10 + Rng.int r 30 in
    let g = Gen.random_connected r ~n ~extra_edges:n in
    let order = Rng.permutation r n in
    let parent = Array.make n (-1) in
    for i = 1 to n - 1 do
      parent.(order.(i)) <- order.(i - 1)
    done;
    if not (Elimination.is_coherent (Elimination.make ~parent) g) then
      incr incoherent
  done;
  check "most chain models incoherent" true (!incoherent >= 40)

let exit_vertices () =
  let g = Gen.path 7 in
  let model = Elimination.coherentize (Elimination.of_path 7) g in
  List.iter
    (fun v ->
      if model.Elimination.parent.(v) <> -1 then begin
        let e = Elimination.exit_vertex model g v in
        check "exit in subtree" true
          (List.mem e (Elimination.subtree model v));
        check "exit adjacent to parent" true
          (Graph.mem_edge g e model.Elimination.parent.(v))
      end)
    (Graph.vertices g)

(* --- exact solver --- *)

let exact_known_values () =
  check_int "K1" 1 (Exact.treedepth (Graph.empty 1));
  check_int "P2" 2 (Exact.treedepth (Gen.path 2));
  check_int "P3" 2 (Exact.treedepth (Gen.path 3));
  check_int "P4" 3 (Exact.treedepth (Gen.path 4));
  check_int "P7" 3 (Exact.treedepth (Gen.path 7));
  check_int "P8" 4 (Exact.treedepth (Gen.path 8));
  check_int "star" 2 (Exact.treedepth (Gen.star 8));
  check_int "C3" 3 (Exact.treedepth (Gen.cycle 3));
  check_int "C4" 3 (Exact.treedepth (Gen.cycle 4));
  check_int "C8" 4 (Exact.treedepth (Gen.cycle 8));
  check_int "K5" 5 (Exact.treedepth (Gen.clique 5));
  check_int "grid 2x3" 4 (Exact.treedepth (Gen.grid 2 3))

let exact_matches_closed_forms () =
  for n = 1 to 16 do
    check_int
      (Printf.sprintf "path %d" n)
      (Exact.path_treedepth n)
      (Exact.treedepth (Gen.path n))
  done;
  for n = 3 to 14 do
    check_int
      (Printf.sprintf "cycle %d" n)
      (Exact.cycle_treedepth n)
      (Exact.treedepth (Gen.cycle n))
  done

let exact_optimal_model () =
  let rng = Rng.make 8 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 12 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng 6) in
    let model = Exact.optimal_model g in
    check "is model" true (Elimination.is_model model g);
    check_int "height = treedepth" (Exact.treedepth g)
      (Elimination.height model)
  done

let exact_monotone_under_subgraphs () =
  let rng = Rng.make 9 in
  for _ = 1 to 10 do
    let n = 5 + Rng.int rng 8 in
    let g = Gen.random_connected rng ~n ~extra_edges:3 in
    let v = Rng.int rng n in
    let h = Graph.remove_vertex g v in
    if Graph.n h > 0 then
      check "treedepth monotone" true (Exact.treedepth h <= Exact.treedepth g)
  done

let exact_at_most () =
  check "P7 <= 3" true (Exact.treedepth_at_most (Gen.path 7) 3);
  check "P8 not <= 3" false (Exact.treedepth_at_most (Gen.path 8) 3)

(* The solver's bit tables are built on first use.  [td_race.exe]
   (test/td_race) makes that first use from two domains released
   together, in a fresh process each time: a domain-unsafe table
   ([lazy]) makes one of them raise in most runs. *)
let exact_first_use_two_domains () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "td_race/td_race.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let failures = ref 0 in
  for _ = 1 to 20 do
    let pid = Unix.create_process exe [| exe |] Unix.stdin devnull devnull in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failures
  done;
  Unix.close devnull;
  check_int "failed runs of 20" 0 !failures

(* --- cops and robber --- *)

let cops_equals_treedepth () =
  let graphs =
    [
      Gen.path 5; Gen.path 8; Gen.cycle 5; Gen.cycle 8; Gen.star 6;
      Gen.clique 4; Gen.complete_binary_tree 2; Gen.grid 2 4;
      Gen.caterpillar ~spine:3 ~legs:2;
    ]
  in
  List.iter
    (fun g ->
      check_int
        (Printf.sprintf "game value = treedepth (n=%d)" (Graph.n g))
        (Exact.treedepth g) (Cops_robber.cop_number g))
    graphs

let cops_equals_treedepth_random () =
  let rng = Rng.make 123 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 9 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng 5) in
    check_int "game = treedepth" (Exact.treedepth g) (Cops_robber.cop_number g)
  done

let strategy_is_optimal_and_playable () =
  let g = Gen.cycle 8 in
  let strat = Cops_robber.optimal_strategy g in
  check_int "strategy depth = cop number" (Cops_robber.cop_number g)
    (Cops_robber.strategy_depth strat);
  (* an adversarial robber that always flees to the largest option *)
  let robber options = List.fold_left max (List.hd options) options in
  let trace = Cops_robber.play g strat ~robber in
  check "capture within cop budget" true
    (List.length trace <= Cops_robber.cop_number g);
  (* a lazy robber is caught at least as fast *)
  let lazy_robber options = List.hd options in
  let trace2 = Cops_robber.play g strat ~robber:lazy_robber in
  check "lazy robber also caught" true
    (List.length trace2 <= Cops_robber.cop_number g)

let strategy_against_random_robbers () =
  let rng = Rng.make 55 in
  let g = Gen.grid 2 4 in
  let strat = Cops_robber.optimal_strategy g in
  let budget = Cops_robber.cop_number g in
  for _ = 1 to 20 do
    let robber options = List.nth options (Rng.int rng (List.length options)) in
    let trace = Cops_robber.play g strat ~robber in
    check "caught within budget" true (List.length trace <= budget)
  done

let qcheck_exact_vs_cops =
  QCheck.Test.make ~name:"cops-and-robber equals treedepth" ~count:15
    QCheck.(pair (int_range 2 9) int)
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng 4) in
      Exact.treedepth g = Cops_robber.cop_number g)

let qcheck_model_height_bounds_treedepth =
  QCheck.Test.make ~name:"any model's height bounds treedepth" ~count:15
    QCheck.(pair (int_range 2 10) int)
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = Gen.random_tree rng n in
      let model = Elimination.centroid_of_tree g in
      Exact.treedepth g <= Elimination.height model)

let suite =
  [
    ( "treedepth:elimination",
      [
        Alcotest.test_case "basics (Figure 1)" `Quick elimination_basics;
        Alcotest.test_case "validation" `Quick elimination_validation;
        Alcotest.test_case "path models optimal" `Quick path_models_optimal;
        Alcotest.test_case "cycle models" `Quick cycle_models;
        Alcotest.test_case "binary tree model" `Quick binary_tree_model;
        Alcotest.test_case "centroid models" `Quick centroid_models;
        Alcotest.test_case "coherence" `Quick coherence;
        Alcotest.test_case "coherentize random" `Quick coherentize_random;
        QCheck_alcotest.to_alcotest qcheck_coherentize_vs_reference;
        Alcotest.test_case "chain models need repairs" `Quick
          chain_models_need_repairs;
        Alcotest.test_case "exit vertices" `Quick exit_vertices;
      ] );
    ( "treedepth:exact",
      [
        Alcotest.test_case "known values" `Quick exact_known_values;
        Alcotest.test_case "closed forms" `Quick exact_matches_closed_forms;
        Alcotest.test_case "optimal model" `Quick exact_optimal_model;
        Alcotest.test_case "subgraph monotone" `Quick exact_monotone_under_subgraphs;
        Alcotest.test_case "at_most" `Quick exact_at_most;
        Alcotest.test_case "first use from two domains" `Quick
          exact_first_use_two_domains;
      ] );
    ( "treedepth:cops-robber",
      [
        Alcotest.test_case "equals treedepth (families)" `Quick cops_equals_treedepth;
        Alcotest.test_case "equals treedepth (random)" `Quick
          cops_equals_treedepth_random;
        Alcotest.test_case "strategy optimal & playable" `Quick
          strategy_is_optimal_and_playable;
        Alcotest.test_case "random robbers" `Quick strategy_against_random_robbers;
        QCheck_alcotest.to_alcotest qcheck_exact_vs_cops;
        QCheck_alcotest.to_alcotest qcheck_model_height_bounds_treedepth;
      ] );
  ]

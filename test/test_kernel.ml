(* Tests for Section 6: vertex types, k-reduction, and the semantic
   guarantees (Lemma 6.1, Propositions 6.2 and 6.3). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let coherent_model g = Elimination.coherentize (Exact.optimal_model g) g

let random_bounded_td rng =
  let n = 6 + Rng.int rng 10 in
  Gen.random_bounded_treedepth rng ~n ~depth:(2 + Rng.int rng 2) ~p:0.5

(* --- Vtype --- *)

let vtype_hashcons () =
  let a = Vtype.make ~label:0 ~anc:[ true; false ] ~children:[] in
  let b = Vtype.make ~label:0 ~anc:[ true; false ] ~children:[] in
  check "same structure same id" true (Vtype.equal a b);
  check_int "compare 0" 0 (Vtype.compare a b);
  let c = Vtype.make ~label:0 ~anc:[ false; false ] ~children:[] in
  check "different anc different type" false (Vtype.equal a c);
  let p = Vtype.make ~label:0 ~anc:[] ~children:[ (a, 2); (c, 1) ] in
  let q = Vtype.make ~label:0 ~anc:[] ~children:[ (c, 1); (a, 2) ] in
  check "children order canonical" true (Vtype.equal p q);
  check_int "size" 4 (Vtype.size p);
  check_int "height" 2 (Vtype.height p)

(* The registry is shared by every domain of a parallel sweep: the
   kernel verifier's check interns types.  [vtype_race.exe]
   (test/vtype_race) releases two domains together into [Vtype.make]
   on the same keys, in a fresh process each time.  An unlocked
   registry hands one key two ids, or corrupts its table: the child
   then raises or spins, so a child past its deadline is killed and
   counts as failed. *)
let vtype_registry_two_domains () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "vtype_race/vtype_race.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let run_one () =
    let pid = Unix.create_process exe [| exe |] Unix.stdin devnull devnull in
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () > deadline ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          false
      | 0, _ ->
          Unix.sleepf 0.01;
          wait ()
      | _, status -> status = Unix.WEXITED 0
    in
    wait ()
  in
  let failures = ref 0 in
  for _ = 1 to 10 do
    if not (run_one ()) then incr failures
  done;
  Unix.close devnull;
  check_int "failed runs of 10" 0 !failures

let vtype_compute_star () =
  (* star with identity model: all leaves share one type *)
  let g = Gen.star 5 in
  let model = Elimination.make ~parent:[| -1; 0; 0; 0; 0 |] in
  let types = Vtype.compute g model in
  check "leaves share type" true
    (Vtype.equal types.(1) types.(2)
    && Vtype.equal types.(2) types.(3)
    && Vtype.equal types.(3) types.(4));
  check "root differs" false (Vtype.equal types.(0) types.(1));
  Alcotest.(check (list bool)) "leaf anc vector" [ true ]
    (Vtype.anc_vector types.(1))

let vtype_compute_path () =
  let g = Gen.path 7 in
  let model = Elimination.coherentize (Elimination.of_path 7) g in
  let types = Vtype.compute g model in
  (* mirror positions of the balanced model share types *)
  check "0 and 6 same type" true (Vtype.equal types.(0) types.(6));
  check "2 and 4 same type" true (Vtype.equal types.(2) types.(4));
  check "1 and 5 same type" true (Vtype.equal types.(1) types.(5));
  (* 0 touches only its parent, 2 touches parent and grandparent *)
  check "0 and 2 differ" false (Vtype.equal types.(0) types.(2));
  check "leaf vs internal differ" false (Vtype.equal types.(0) types.(1))

let vtype_labels () =
  let a = Vtype.make ~label:1 ~anc:[ true ] ~children:[] in
  let b = Vtype.make ~label:2 ~anc:[ true ] ~children:[] in
  let a' = Vtype.make ~label:1 ~anc:[ true ] ~children:[] in
  check "labels distinguish types" false (Vtype.equal a b);
  check "same label same type" true (Vtype.equal a a');
  Alcotest.(check int) "label accessor" 1 (Vtype.label a);
  (* labeled compute: star with distinctly labeled leaves *)
  let g = Gen.star 4 in
  let model = Elimination.make ~parent:[| -1; 0; 0; 0 |] in
  let types = Vtype.compute ~labels:[| 0; 1; 1; 2 |] g model in
  check "same-label leaves share type" true (Vtype.equal types.(1) types.(2));
  check "different-label leaves differ" false (Vtype.equal types.(1) types.(3))

let labeled_kernel_preserves () =
  (* kernel preserves sentences with Lab atoms when labels are threaded *)
  let g = Gen.star 9 in
  let labels = [| 0; 1; 1; 1; 1; 2; 2; 2; 2 |] in
  let model =
    Elimination.make ~parent:(Array.init 9 (fun v -> if v = 0 then -1 else 0))
  in
  let red = Reduce.reduce ~labels g model ~k:2 in
  (* 2 leaves of each label class survive *)
  check_int "kernel size" 5 (Reduce.kernel_size red);
  let klabels = Array.map (fun v -> labels.(v)) red.Reduce.of_kernel in
  List.iter
    (fun src ->
      let phi = Parser.parse_exn src in
      check src (Eval.sentence ~labels g phi)
        (Eval.sentence ~labels:klabels red.Reduce.kernel phi))
    [
      "exists x. lab1(x)";
      "exists x. lab2(x)";
      "exists x. lab3(x)";
      "exists x. exists y. ~(x = y) & lab1(x) & lab1(y)";
      "forall x. lab1(x) -> (exists y. x -- y & lab0(y))";
    ]

let vtype_f_bound () =
  let f = Vtype.f_bound ~k:1 ~t:2 in
  (* depth 2: single-vertex subtrees, 2^1 = 2 types; depth 1:
     2^0 * (k+1)^f2 = 1 * 2^2 = 4 *)
  check_int "f_2" 2 f.(1);
  check_int "f_1" 4 f.(0);
  (* deeper towers saturate *)
  let f5 = Vtype.f_bound ~k:2 ~t:5 in
  check "tower saturates" true (f5.(0) = max_int)

(* --- reduction --- *)

let reduce_star () =
  (* star with 6 leaves, k = 2: keep exactly 2 leaves *)
  let g = Gen.star 7 in
  let model = Elimination.make ~parent:[| -1; 0; 0; 0; 0; 0; 0 |] in
  let red = Reduce.reduce g model ~k:2 in
  check_int "kernel size" 3 (Reduce.kernel_size red);
  check "root alive" true red.Reduce.alive.(0);
  check_int "pruned count" 4
    (Array.fold_left (fun acc p -> acc + if p then 1 else 0) 0 red.Reduce.pruned);
  check "lemma 6.1" true (Reduce.check_lemma_6_1 red);
  check "kernel connected" true (Graph.is_connected red.Reduce.kernel)

let reduce_preserves_small_graphs () =
  (* if every type multiplicity is <= k nothing is pruned *)
  let g = Gen.path 7 in
  let model = coherent_model g in
  let red = Reduce.reduce g model ~k:2 in
  check_int "nothing pruned on P7 at k=2" 7 (Reduce.kernel_size red)

let reduce_caterpillar () =
  let g = Gen.caterpillar ~spine:3 ~legs:5 in
  let model = coherent_model g in
  let red = Reduce.reduce g model ~k:1 in
  check "something pruned" true (Reduce.kernel_size red < Graph.n g);
  check "lemma 6.1" true (Reduce.check_lemma_6_1 red);
  check "kernel connected" true (Graph.is_connected red.Reduce.kernel);
  (* kernel of the kernel is itself (idempotence) *)
  let ktree = Reduce.kernel_tree red in
  let red2 = Reduce.reduce red.Reduce.kernel ktree ~k:1 in
  check_int "idempotent" (Reduce.kernel_size red) (Reduce.kernel_size red2)

let reduce_structure_invariants () =
  let rng = Rng.make 2025 in
  for _ = 1 to 15 do
    let g = random_bounded_td rng in
    let model = coherent_model g in
    let k = 1 + Rng.int rng 3 in
    let red = Reduce.reduce g model ~k in
    check "lemma 6.1" true (Reduce.check_lemma_6_1 red);
    check "kernel connected" true (Graph.is_connected red.Reduce.kernel);
    (* ancestors of alive vertices are alive *)
    Array.iteri
      (fun v alive ->
        if alive then
          List.iter
            (fun a -> check "ancestor alive" true red.Reduce.alive.(a))
            (Elimination.ancestors red.Reduce.tree v))
      red.Reduce.alive;
    (* pruned vertices are dead, and their subtrees are dead *)
    Array.iteri
      (fun v pruned ->
        if pruned then
          List.iter
            (fun w -> check "pruned subtree dead" false red.Reduce.alive.(w))
            (Elimination.subtree red.Reduce.tree v))
      red.Reduce.pruned;
    (* kernel tree is a model of the kernel *)
    check "kernel tree models kernel" true
      (Elimination.is_model (Reduce.kernel_tree red) red.Reduce.kernel);
    (* no surviving vertex has more than k same-type surviving children *)
    Array.iteri
      (fun v alive ->
        if alive then begin
          let kids =
            List.filter
              (fun w -> red.Reduce.alive.(w))
              (Elimination.children red.Reduce.tree v)
          in
          let by_type = Hashtbl.create 8 in
          List.iter
            (fun w ->
              let key = Vtype.id red.Reduce.end_type.(w) in
              Hashtbl.replace by_type key
                (1 + Option.value ~default:0 (Hashtbl.find_opt by_type key)))
            kids;
          Hashtbl.iter
            (fun _ c -> check "at most k per type" true (c <= k))
            by_type
        end)
      red.Reduce.alive
  done

let reduce_size_independent_of_n () =
  (* growing a star: kernel size must stabilize (Proposition 6.2) *)
  let sizes =
    List.map
      (fun n ->
        let g = Gen.star n in
        let model =
          Elimination.make ~parent:(Array.init n (fun v -> if v = 0 then -1 else 0))
        in
        Reduce.kernel_size (Reduce.reduce g model ~k:2))
      [ 5; 10; 20; 40 ]
  in
  Alcotest.(check (list int)) "stable kernel size" [ 3; 3; 3; 3 ] sizes

let reduce_caterpillar_growth () =
  let sizes =
    List.map
      (fun legs ->
        let g = Gen.caterpillar ~spine:4 ~legs in
        let model =
          Elimination.coherentize (Elimination.of_caterpillar ~spine:4 ~legs) g
        in
        Reduce.kernel_size (Reduce.reduce g model ~k:2))
      [ 3; 6; 12 ]
  in
  match sizes with
  | [ a; b; c ] ->
      check "stabilizes" true (b = c);
      check "bounded by first" true (a <= b)
  | _ -> assert false

(* --- Proposition 6.3: G ≃_k kernel --- *)

let kernel_ef_equivalent () =
  let rng = Rng.make 404 in
  for _ = 1 to 8 do
    let n = 6 + Rng.int rng 6 in
    let g = Gen.random_bounded_treedepth rng ~n ~depth:2 ~p:0.6 in
    let model = coherent_model g in
    let k = 2 in
    let red = Reduce.reduce g model ~k in
    check "G ≃_2 kernel (EF game)" true (Ef.equiv k g red.Reduce.kernel)
  done

let kernel_preserves_random_formulas () =
  let rng = Rng.make 808 in
  let formula_rng = Rng.make 809 in
  for _ = 1 to 6 do
    let n = 6 + Rng.int rng 8 in
    let g = Gen.random_bounded_treedepth rng ~n ~depth:3 ~p:0.5 in
    let model = coherent_model g in
    let k = 2 in
    let red = Reduce.reduce g model ~k in
    List.iter
      (fun phi ->
        check
          (Printf.sprintf "rank-%d preservation: %s" k (Formula.to_string phi))
          (Eval.sentence g phi)
          (Eval.sentence red.Reduce.kernel phi))
      (Gen_formula.fo_sentences formula_rng ~rank:k ~count:20)
  done

let kernel_preserves_named_properties () =
  let rng = Rng.make 606 in
  for _ = 1 to 8 do
    let g = random_bounded_td rng in
    let model = coherent_model g in
    List.iter
      (fun (p : Props.t) ->
        match p.Props.formula with
        | Some phi when Formula.is_fo phi ->
            let k = max 1 (Formula.quantifier_rank phi) in
            let red = Reduce.reduce g model ~k in
            check
              (p.Props.name ^ " preserved by its rank kernel")
              (p.Props.check g)
              (p.Props.check red.Reduce.kernel)
        | _ -> ())
      [
        Props.has_dominating_vertex;
        Props.is_clique;
        Props.triangle_free;
        Props.max_degree_at_most 3;
        Props.diameter_at_most_2;
      ]
  done

let qcheck_kernel_ef =
  QCheck.Test.make ~name:"Proposition 6.3: G ≃_k k-reduction" ~count:10
    QCheck.(pair int (int_range 1 2))
    (fun (seed, k) ->
      let rng = Rng.make seed in
      let n = 5 + Rng.int rng 6 in
      let g = Gen.random_bounded_treedepth rng ~n ~depth:2 ~p:0.5 in
      let model = coherent_model g in
      let red = Reduce.reduce g model ~k in
      Ef.equiv k g red.Reduce.kernel)

let suite =
  [
    ( "kernel:vtype",
      [
        Alcotest.test_case "hash-consing" `Quick vtype_hashcons;
        Alcotest.test_case "registry from two domains" `Quick
          vtype_registry_two_domains;
        Alcotest.test_case "star types" `Quick vtype_compute_star;
        Alcotest.test_case "path types" `Quick vtype_compute_path;
        Alcotest.test_case "f_d bound (Prop 6.2)" `Quick vtype_f_bound;
        Alcotest.test_case "labeled types" `Quick vtype_labels;
        Alcotest.test_case "labeled kernel preserves Lab" `Quick
          labeled_kernel_preserves;
      ] );
    ( "kernel:reduce",
      [
        Alcotest.test_case "star" `Quick reduce_star;
        Alcotest.test_case "nothing to prune" `Quick reduce_preserves_small_graphs;
        Alcotest.test_case "caterpillar" `Quick reduce_caterpillar;
        Alcotest.test_case "structural invariants" `Quick reduce_structure_invariants;
        Alcotest.test_case "size independent of n (stars)" `Quick
          reduce_size_independent_of_n;
        Alcotest.test_case "size stabilizes (caterpillars)" `Quick
          reduce_caterpillar_growth;
      ] );
    ( "kernel:semantics",
      [
        Alcotest.test_case "G ≃_k kernel (EF, Prop 6.3)" `Quick kernel_ef_equivalent;
        Alcotest.test_case "random formulas preserved" `Quick
          kernel_preserves_random_formulas;
        Alcotest.test_case "named properties preserved" `Quick
          kernel_preserves_named_properties;
        QCheck_alcotest.to_alcotest qcheck_kernel_ef;
      ] );
  ]

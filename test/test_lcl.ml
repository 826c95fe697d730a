(* Tests for locally checkable labelings via threshold constraints
   (Appendix C.2 / Naor–Stockmeyer). *)

let check = Alcotest.(check bool)

let inst ?labels g = Instance.make ?labels g

let constraint_semantics () =
  let col = Lcl.proper_coloring ~colors:3 in
  check "different colors ok" true
    (Lcl.valid_at col ~label:0 ~neighbor_labels:[ 1; 2; 1 ]);
  check "clash rejected" false
    (Lcl.valid_at col ~label:1 ~neighbor_labels:[ 2; 1 ]);
  check "out of alphabet" false
    (Lcl.valid_at col ~label:5 ~neighbor_labels:[]);
  let mis = Lcl.maximal_independent_set in
  check "in-set, independent" true (Lcl.valid_at mis ~label:1 ~neighbor_labels:[ 0; 0 ]);
  check "in-set, clash" false (Lcl.valid_at mis ~label:1 ~neighbor_labels:[ 1 ]);
  check "out-set, dominated" true (Lcl.valid_at mis ~label:0 ~neighbor_labels:[ 0; 1 ]);
  check "out-set, undominated" false (Lcl.valid_at mis ~label:0 ~neighbor_labels:[ 0 ])

let greedy_solvers () =
  let rng = Rng.make 33 in
  for _ = 1 to 10 do
    let g = Gen.random_connected rng ~n:15 ~extra_edges:(Rng.int rng 10) in
    (* greedy coloring with Δ+1 colors always succeeds and is proper *)
    let maxdeg =
      List.fold_left (fun acc v -> max acc (Graph.degree g v)) 0 (Graph.vertices g)
    in
    (match Lcl.greedy_coloring ~colors:(maxdeg + 1) g with
    | Some labels ->
        check "proper" true (Lcl.valid (Lcl.proper_coloring ~colors:(maxdeg + 1)) g ~labels)
    | None -> Alcotest.fail "greedy must succeed with Δ+1 colors");
    (* greedy MIS satisfies the MIS constraint *)
    let labels = Lcl.greedy_mis g in
    check "mis valid" true (Lcl.valid Lcl.maximal_independent_set g ~labels)
  done

let labeled_scheme () =
  (* certify a correct input coloring of C6; reject a spoiled one *)
  let lcl = Lcl.proper_coloring ~colors:2 in
  let good = inst ~labels:[| 0; 1; 0; 1; 0; 1 |] (Gen.cycle 6) in
  let scheme = Lcl.scheme_of_labeled lcl in
  (match Scheme.certify scheme good with
  | Some (_, o) -> check "good coloring accepted" true o.Scheme.accepted
  | None -> Alcotest.fail "prover declined a valid coloring");
  let bad = inst ~labels:[| 0; 1; 0; 1; 1; 1 |] (Gen.cycle 6) in
  check "bad coloring declined" true (scheme.Scheme.prover bad = None);
  (* and no forged certificates help: the certs must match the inputs *)
  let rng = Rng.make 3 in
  let attack = Attack.random_assignments rng scheme bad ~trials:200 ~max_bits:4 in
  check "unfoolable" true (attack.Attack.fooled = None);
  (* lying about one's own label is caught *)
  let certs = Option.get (scheme.Scheme.prover good) in
  let forged = Array.copy certs in
  forged.(4) <- Bitstring.flip forged.(4) 0;
  let o = Scheme.run scheme good forged in
  check "label lie caught" false o.Scheme.accepted

let search_scheme () =
  (* "an MIS exists" — always true; the labeling travels in certs *)
  let scheme =
    Lcl.scheme_of_search Lcl.maximal_independent_set
      ~solve:(fun g -> Some (Lcl.greedy_mis g))
  in
  let rng = Rng.make 21 in
  for _ = 1 to 8 do
    let g = Gen.random_connected rng ~n:12 ~extra_edges:(Rng.int rng 6) in
    match Scheme.certify scheme (inst g) with
    | Some (_, o) ->
        check "mis certified" true o.Scheme.accepted;
        check "constant certificate" true (o.Scheme.max_bits <= 1)
    | None -> Alcotest.fail "MIS always exists"
  done;
  (* 2-coloring exists iff bipartite *)
  let two =
    Lcl.scheme_of_search (Lcl.proper_coloring ~colors:2)
      ~solve:(Lcl.greedy_coloring ~colors:2)
  in
  (* greedy in vertex order 2-colors paths and even cycles *)
  (match Scheme.certify two (inst (Gen.path 8)) with
  | Some (_, o) -> check "path 2-colored" true o.Scheme.accepted
  | None -> Alcotest.fail "paths are bipartite (greedy order works)");
  check "odd cycle declined" true (two.Scheme.prover (inst (Gen.cycle 5)) = None);
  let attack =
    Attack.random_assignments (Rng.make 9) two (inst (Gen.cycle 5)) ~trials:300
      ~max_bits:3
  in
  check "no forged 2-coloring of C5" true (attack.Attack.fooled = None)

let threshold_lcl_beyond_bounded_degree () =
  (* at-most-k-neighbors-in-set: a genuinely counting constraint *)
  let lcl = Lcl.at_most_k_neighbors_in_set 2 in
  let star = Gen.star 8 in
  (* center out of the set with 7 in-set leaves: violates k=2 *)
  check "7 in-set neighbors too many" false
    (Lcl.valid lcl star ~labels:(Array.init 8 (fun v -> if v = 0 then 0 else 1)));
  (* center in the set: label-1 vertices are unconstrained *)
  check "center in set is fine" true
    (Lcl.valid lcl star ~labels:(Array.init 8 (fun v -> if v = 0 then 1 else 1)));
  (* two in-set leaves: fine *)
  check "2 in-set neighbors ok" true
    (Lcl.valid lcl star ~labels:(Array.init 8 (fun v -> if v >= 1 && v <= 2 then 1 else 0)))

(* Differential: [valid_at]/[valid] count labels into a tally sized by
   the states the constraints can read; the reference is the plain
   [Tree_automaton.counts_of_list] multiset of every neighbor label.
   Labels are drawn from outside the alphabet on both sides, and the
   hand-built LCL names states beyond its alphabet, which a neighbor
   label can then reach. *)
let wide_lcl =
  {
    Lcl.name = "wide";
    alphabet = 2;
    constraints =
      [|
        Uop.conj [ Uop.count_le 3 1; Uop.count_ge 0 1 ];
        Uop.Not (Uop.Le (Uop.Plus (Uop.Count 5, Uop.Count 1), Uop.Const 1));
      |];
  }

let ref_valid_at (lcl : Lcl.t) ~label ~neighbor_labels =
  label >= 0 && label < lcl.alphabet
  && Uop.holds lcl.constraints.(label)
       ~counts:(Tree_automaton.counts_of_list neighbor_labels)

let ref_valid lcl g ~labels =
  List.for_all
    (fun v ->
      ref_valid_at lcl ~label:labels.(v)
        ~neighbor_labels:
          (Array.to_list (Array.map (fun w -> labels.(w)) (Graph.neighbors g v))))
    (Graph.vertices g)

let qcheck_valid_vs_counts_of_list =
  QCheck.Test.make ~name:"valid_at/valid ≡ counts_of_list reference"
    ~count:300
    QCheck.(pair (int_range 1 30) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(Rng.int rng n) in
      List.for_all
        (fun (lcl : Lcl.t) ->
          (* mostly in-alphabet labels (so [valid] is sometimes true),
             or anything in [-2, alphabet + 5) *)
          let wild = Rng.bool rng in
          let labels =
            if Rng.int rng 3 = 0 && lcl.alphabet = 2 then Lcl.greedy_mis g
            else
              Array.init n (fun _ ->
                  if wild then Rng.int_in rng (-2) (lcl.alphabet + 4)
                  else Rng.int rng lcl.alphabet)
          in
          let per_vertex =
            List.for_all
              (fun v ->
                let neighbor_labels =
                  Array.to_list
                    (Array.map (fun w -> labels.(w)) (Graph.neighbors g v))
                in
                Lcl.valid_at lcl ~label:labels.(v) ~neighbor_labels
                = ref_valid_at lcl ~label:labels.(v) ~neighbor_labels)
              (Graph.vertices g)
          in
          let expected = ref_valid lcl g ~labels in
          (* the compiled checker, over certificates of in-alphabet
             labels, agrees too *)
          let checker_agrees =
            wild
            ||
            let s = Lcl.scheme_of_search lcl ~solve:(fun _ -> None) in
            let certs = Array.map (Lcl.encode_label lcl) labels in
            (Scheme.run s (inst g) certs).Scheme.accepted = expected
          in
          per_vertex && Lcl.valid lcl g ~labels = expected && checker_agrees)
        [
          Lcl.maximal_independent_set;
          Lcl.weak_2_coloring;
          Lcl.at_most_k_neighbors_in_set 1;
          Lcl.proper_coloring ~colors:(1 + Rng.int rng 4);
          wide_lcl;
        ])

let wide_constraint_reads_beyond_alphabet () =
  (* state 3 is outside the alphabet but named by label 0's constraint *)
  check "one 3-neighbor allowed" true
    (Lcl.valid_at wide_lcl ~label:0 ~neighbor_labels:[ 0; 3 ]);
  check "two 3-neighbors rejected" false
    (Lcl.valid_at wide_lcl ~label:0 ~neighbor_labels:[ 0; 3; 3 ]);
  check "y5 + y1 > 1 holds" true
    (Lcl.valid_at wide_lcl ~label:1 ~neighbor_labels:[ 5; 1; 7; -1 ]);
  check "labels no constraint reads are ignored" false
    (Lcl.valid_at wide_lcl ~label:1 ~neighbor_labels:[ 5; 7; 8; -4 ])

(* The provers encode each symbol once: every certificate equals the
   per-vertex encoding, and equal labels share one certificate. *)
let prover_shares_certificates () =
  let rng = Rng.make 17 in
  for _ = 1 to 10 do
    let g = Gen.random_connected rng ~n:40 ~extra_edges:(Rng.int rng 20) in
    let lcl = Lcl.maximal_independent_set in
    let labels = Lcl.greedy_mis g in
    List.iter
      (fun scheme ->
        let certs = Option.get (scheme.Scheme.prover (inst ~labels g)) in
        Array.iteri
          (fun v c ->
            check "equals encode_label" true
              (Bitstring.equal c (Lcl.encode_label lcl labels.(v)));
            check "shared with vertex 0's label" true
              (labels.(v) <> labels.(0) || c == certs.(0)))
          certs)
      [
        Lcl.scheme_of_labeled lcl;
        Lcl.scheme_of_search lcl ~solve:(fun _ -> Some labels);
      ]
  done

(* [valid] allocates a constant amount per vertex — the tally is made
   once per walk, and each vertex builds only its (state, count) list —
   so its minor words per vertex stay flat from n = 4096 to 65536.  A
   per-vertex table or sort sized by the degree or by n would not. *)
let valid_allocation_flat () =
  let per_vertex n =
    let g =
      Gen.random_connected (Rng.make n) ~n ~extra_edges:(n / 2)
    in
    let labels = Lcl.greedy_mis g in
    let before = Gc.minor_words () in
    let ok =
      Sys.opaque_identity (Lcl.valid Lcl.maximal_independent_set g ~labels)
    in
    let words = Gc.minor_words () -. before in
    check "MIS valid" true ok;
    words /. float_of_int n
  in
  let small = per_vertex 4096 and large = per_vertex 65_536 in
  if large > 1.5 *. small then
    Alcotest.failf
      "Lcl.valid: %.1f minor words per vertex at n = 65536 vs %.1f at 4096"
      large small

let suite =
  [
    ( "lcl",
      [
        Alcotest.test_case "constraint semantics" `Quick constraint_semantics;
        Alcotest.test_case "greedy solvers" `Quick greedy_solvers;
        Alcotest.test_case "labeled scheme" `Quick labeled_scheme;
        Alcotest.test_case "search scheme" `Quick search_scheme;
        Alcotest.test_case "threshold beyond bounded degree" `Quick
          threshold_lcl_beyond_bounded_degree;
        QCheck_alcotest.to_alcotest qcheck_valid_vs_counts_of_list;
        Alcotest.test_case "constraints read states beyond the alphabet"
          `Quick wide_constraint_reads_beyond_alphabet;
        Alcotest.test_case "provers share per-symbol certificates" `Quick
          prover_shares_certificates;
        Alcotest.test_case "valid allocates flat per vertex" `Quick
          valid_allocation_flat;
      ] );
  ]

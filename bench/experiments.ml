(* The per-theorem/per-figure experiments (E1–E12 of DESIGN.md).

   Each [e*] function prints one labelled section with the series the
   paper's statement predicts: certificate sizes in bits as a function
   of n for the upper bounds, exact treedepth/automorphism dichotomies
   and counting curves for the lower bounds.  EXPERIMENTS.md records
   the paper-vs-measured reading of each section. *)

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n"

let row fmt = Printf.printf fmt

let inst g = Instance.make g

let size_of scheme instance =
  match Scheme.certificate_size scheme instance with
  | Some b -> string_of_int b
  | None -> "—"

let check_accepts scheme instance =
  match Scheme.certify scheme instance with
  | Some (_, o) when o.Scheme.accepted -> "accept"
  | Some _ -> "REJECT(bug)"
  | None -> "declined"

(* ------------------------------------------------------------------ *)
(* E1: Proposition 3.4 — spanning tree + vertex count, Θ(log n).      *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "Prop 3.4: spanning-tree & vertex-count certification, Θ(log n)";
  row "%8s %14s %14s %14s %10s\n" "n" "spanning(bits)" "count(bits)" "ceil(log2 n)" "verdict";
  let rng = Rng.make 1 in
  List.iter
    (fun n ->
      let g = Gen.random_tree rng n in
      let i = inst g in
      let sp = Spanning_tree.scheme () in
      let vc =
        Spanning_tree.vertex_count ~expected:(fun total -> total = n)
          (Printf.sprintf "n=%d" n)
      in
      row "%8d %14s %14s %14d %10s\n" n (size_of sp i)
        (size_of vc i)
        (Combin.ceil_log2 (n + 1))
        (check_accepts vc i))
    [ 16; 64; 256; 1024; 4096 ]

(* ------------------------------------------------------------------ *)
(* E2: Theorem 2.2 — MSO on trees with O(1) bits.                     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "Thm 2.2: MSO properties on trees with O(1)-bit certificates";
  (* each property is measured on a family of trees that satisfies it,
     so the prover never declines and the size series is meaningful *)
  let ns = [ 16; 64; 256; 1024 ] in
  let rng = Rng.make 2 in
  let random_tree n = Gen.random_tree rng n in
  let families :
      (string * Library.entry * string * (int -> Graph.t)) list =
    [
      ("true", Library.trivial_true, "random trees", random_tree);
      ("max-degree<=2", Library.max_degree_at_most 2, "paths", Gen.path);
      ( "max-degree<=3",
        Library.max_degree_at_most 3,
        "binary trees",
        fun n -> Gen.complete_binary_tree (Combin.ceil_log2 (n + 1) - 1) );
      ( "exists-degree>=4",
        Library.has_vertex_of_degree_at_least 4,
        "caterpillars",
        fun n -> Gen.caterpillar ~spine:(max 1 (n / 5)) ~legs:4 );
      ( "perfect-matching",
        Library.has_perfect_matching,
        "even paths",
        fun n -> Gen.path (2 * (n / 2)) );
      ( "diameter<=2",
        Library.diameter_at_most 2,
        "stars",
        Gen.star );
      ( "diameter<=4",
        Library.diameter_at_most 4,
        "legs-4 caterpillar(3)",
        fun n -> Gen.caterpillar ~spine:3 ~legs:(max 1 ((n - 3) / 3)) );
      ( "height<=3 (radius)",
        Library.height_at_most 3,
        "spiders",
        fun n -> Gen.spider ~legs:(max 1 ((n - 1) / 3)) ~leg_len:3 );
      ( "even-order",
        Library.even_order,
        "even random trees",
        fun n -> random_tree (2 * (n / 2)) );
    ]
  in
  row "%-22s %-22s" "property" "family";
  List.iter (fun n -> row "%8d" n) ns;
  row "%10s\n" "shape";
  List.iter
    (fun (name, (e : Library.entry), fam, build) ->
      let scheme = Tree_mso.make e.Library.auto in
      row "%-22s %-22s" name fam;
      let sizes =
        List.map
          (fun n ->
            match Scheme.certificate_size scheme (inst (build n)) with
            | Some b -> (string_of_int b, Some b)
            | None -> ("-", None))
          ns
      in
      List.iter (fun (s, _) -> row "%8s" s) sizes;
      let values = List.filter_map snd sizes in
      let flat =
        match values with
        | [] -> "n/a"
        | v :: rest ->
            if List.for_all (fun x -> x = v) rest then "O(1) ok" else "varies"
      in
      row "%10s\n" flat)
    families;
  (* baseline: the Θ(log n) spanning-tree certificate on random trees *)
  row "%-22s %-22s" "[baseline spanning]" "random trees";
  List.iter
    (fun n -> row "%8s" (size_of (Spanning_tree.scheme ()) (inst (random_tree n))))
    ns;
  row "%10s\n" "log n"

(* ------------------------------------------------------------------ *)
(* E3: Theorem 2.3 — Ω̃(n) for fixed-point-free automorphism.          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3"
    "Thm 2.3: fixed-point-free automorphism needs Ω̃(n) bits (gadget + counting)";
  row "Counting rooted trees of depth <= 3 (Pach et al. [42]): the string\n";
  row "length embeddable in an n-node gadget side, over r = 2 cut vertices.\n\n";
  row "%8s %18s %18s %14s\n" "n" "log2 #trees(n,3)" "bound ell/r" "bits/vertex";
  List.iter
    (fun (n, bits) ->
      row "%8d %18.1f %18.1f %14.2f\n" n bits (bits /. 2.0)
        (bits /. 2.0 /. float_of_int ((2 * n) + 2)))
    (Automorphism_gadget.bound_curve ~depth:3 ~max_n:34);
  row "\nGadget demo (n = 7 per side, depth 3):\n";
  let gadget = Automorphism_gadget.make ~n:7 ~depth:3 in
  let rng = Rng.make 3 in
  let sa = Rng.bits rng gadget.Framework.ell in
  let sb = Rng.bits rng gadget.Framework.ell in
  row "  partition conditions: %s\n"
    (match Framework.check_partition gadget sa sb with
    | Ok () -> "ok"
    | Error e -> "VIOLATED: " ^ e);
  let eq_inst = gadget.Framework.build sa sa in
  let ne_inst = gadget.Framework.build sa sb in
  row "  equal strings  -> fpf automorphism: %b (expected true)\n"
    (Automorphism_gadget.property eq_inst.Instance.graph);
  row "  unequal strings-> fpf automorphism: %b (expected false unless trees collide)\n"
    (Automorphism_gadget.property ne_inst.Instance.graph);
  (* the only known upper bound is the universal scheme: measure it *)
  let universal = Universal.make ~name:"fpf" Automorphism_gadget.property in
  row "  universal upper bound on the gadget (n=16): %s bits (Θ(n²) regime)\n"
    (size_of universal (inst eq_inst.Instance.graph));
  let proto = Framework.protocol_of_scheme universal gadget in
  row "  Prop 7.2 protocol from that scheme decides EQUALITY: %b\n"
    (Equality.decides_equality (Rng.make 4) proto ~len:gadget.Framework.ell
       ~samples:5)

(* ------------------------------------------------------------------ *)
(* E4: Theorem 2.4 — treedepth <= t with O(t log n) bits.             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "Thm 2.4: treedepth-at-most-t certification, O(t log n) bits";
  row "%-18s %8s %4s %12s %14s %10s\n" "family" "n" "t" "bits" "bits/(t·lg n)" "verdict";
  let entry family g model =
    let n = Graph.n g in
    let t = Elimination.height model in
    let i = inst g in
    let scheme = Treedepth_cert.make_with_model ~t model in
    let bits = Scheme.certificate_size scheme i in
    match bits with
    | Some b ->
        row "%-18s %8d %4d %12d %14.2f %10s\n" family n t b
          (float_of_int b /. (float_of_int t *. log (float_of_int n) /. log 2.))
          (check_accepts scheme i)
    | None -> row "%-18s %8d %4d %12s\n" family n t "declined"
  in
  List.iter
    (fun n -> entry "path" (Gen.path n) (Elimination.of_path n))
    [ 15; 63; 255; 1023 ];
  List.iter
    (fun n -> entry "cycle" (Gen.cycle n) (Elimination.of_cycle n))
    [ 16; 64; 256; 1024 ];
  List.iter
    (fun h ->
      entry "binary-tree"
        (Gen.complete_binary_tree h)
        (Elimination.of_complete_binary_tree ~h))
    [ 3; 5; 7; 9 ];
  List.iter
    (fun legs ->
      entry "caterpillar"
        (Gen.caterpillar ~spine:15 ~legs)
        (Elimination.of_caterpillar ~spine:15 ~legs))
    [ 2; 8; 32 ];
  row "\nLower bound companion (Thm 2.5): Ω(log n) — see E5.\n"

(* ------------------------------------------------------------------ *)
(* E5: Theorem 2.5 — Ω(log n) for treedepth <= 5 (Figure 3 gadget).   *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5" "Thm 2.5: the Figure-3 gadget — treedepth 5 iff matchings equal";
  row "%6s %8s %10s %12s %12s %16s %14s\n" "m" "n=8m+1" "ell" "td(equal)"
    "td(unequal)" "bound ell/r" "upper(bits)";
  List.iter
    (fun m ->
      let gadget = Treedepth_gadget.make ~m in
      let id = Array.init m Fun.id in
      let rot = Array.init m (fun i -> (i + 1) mod m) in
      let td_eq = Treedepth_gadget.analytic_treedepth ~m id id in
      let td_ne = Treedepth_gadget.analytic_treedepth ~m id rot in
      let eq_inst = Treedepth_gadget.build_from_permutations ~m id id in
      let model = Treedepth_gadget.analytic_model ~m id id in
      let scheme = Treedepth_cert.make_with_model ~t:5 model in
      let upper = size_of scheme (inst eq_inst.Instance.graph) in
      row "%6d %8d %10d %12d %12d %16.2f %14s\n" m ((8 * m) + 1)
        gadget.Framework.ell td_eq td_ne
        (Framework.lower_bound_bits gadget)
        upper)
    [ 2; 3; 4; 6; 8; 12 ];
  row "\nExact cross-check at m=2 (17 vertices): ";
  let id2 = [| 0; 1 |] and sw2 = [| 1; 0 |] in
  let eq_g = (Treedepth_gadget.build_from_permutations ~m:2 id2 id2).Instance.graph in
  let ne_g = (Treedepth_gadget.build_from_permutations ~m:2 id2 sw2).Instance.graph in
  row "td(equal)=%d, td(unequal)=%d (Lemma 7.3: 5 vs >= 6)\n"
    (Exact.treedepth eq_g) (Exact.treedepth ne_g);
  row "ell ~ log2(m!) = m log m, r = 4m+1 cut vertices -> Ω(log n) per vertex.\n"

(* ------------------------------------------------------------------ *)
(* E6: Lemma 7.3 / Figure 4 — the cops-and-robber dichotomy.          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6" "Lemma 7.3 / Fig 4: cops-and-robber on the gadget";
  let id2 = [| 0; 1 |] and sw2 = [| 1; 0 |] in
  let eq_g = (Treedepth_gadget.build_from_permutations ~m:2 id2 id2).Instance.graph in
  let ne_g = (Treedepth_gadget.build_from_permutations ~m:2 id2 sw2).Instance.graph in
  row "cop number (equal matchings, 8-cycles):   %d (paper: 5)\n"
    (Cops_robber.cop_number eq_g);
  row "cop number (unequal matchings, 16-cycle): %d (paper: >= 6)\n"
    (Cops_robber.cop_number ne_g);
  (* the Figure-4 trace: apex first, then binary search on the cycle *)
  let strat = Cops_robber.optimal_strategy eq_g in
  let greedy options = List.fold_left max (List.hd options) options in
  let trace = Cops_robber.play eq_g strat ~robber:greedy in
  row "Fig-4 style trace vs a fleeing robber (cop placements, vertex ids):\n  %s\n"
    (String.concat " -> " (List.map string_of_int trace));
  row "cops used: %d = strategy depth %d\n" (List.length trace)
    (Cops_robber.strategy_depth strat);
  (* C8 alone, the paper's inner picture *)
  let c8 = Gen.cycle 8 in
  row "on C8 alone: cop number %d (2 opposite cops + binary search)\n"
    (Cops_robber.cop_number c8)

(* ------------------------------------------------------------------ *)
(* E7: Theorem 2.6 — kernelization sizes.                             *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7" "Thm 2.6: certified kernels — O(t log n) + f(t,phi) split";
  let tri_free =
    Parser.parse_exn "forall x. forall y. forall z. ~(x -- y & y -- z & x -- z)"
  in
  row "sentence: triangle-freeness (rank 3) on caterpillars (t = 4)\n\n";
  row "%8s %10s %12s %14s %14s %12s\n" "legs" "n" "kernel |V|" "kernel bits"
    "anclist bits" "total bits";
  List.iter
    (fun legs ->
      let g = Gen.caterpillar ~spine:3 ~legs in
      let model =
        Elimination.coherentize (Elimination.of_caterpillar ~spine:3 ~legs) g
      in
      match Kernel_mso.measure ~t:4 model tri_free (inst g) with
      | Some m ->
          row "%8d %10d %12d %14d %14d %12d\n" legs (Graph.n g)
            m.Kernel_mso.kernel_vertices m.Kernel_mso.kernel_bits
            m.Kernel_mso.anclist_bits m.Kernel_mso.total_bits
      | None -> row "%8d %10d %12s\n" legs (Graph.n g) "declined")
    [ 2; 4; 8; 16; 32; 64 ];
  row "\nProposition 6.2's worst-case end-type counts f_d(k,t) (why the\n";
  row "certificate encodes types structurally, not as table indices):\n";
  List.iter
    (fun (k, t) ->
      let f = Vtype.f_bound ~k ~t in
      row "  k=%d t=%d: " k t;
      Array.iteri
        (fun d v ->
          if v = max_int then row "f_%d=huge " (d + 1) else row "f_%d=%d " (d + 1) v)
        f;
      row "\n")
    [ (1, 2); (1, 3); (2, 3); (2, 4) ];
  (* semantic check across a sweep *)
  let rng = Rng.make 7 in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 12 do
    let g = Gen.random_bounded_treedepth rng ~n:12 ~depth:3 ~p:0.4 in
    let model = Elimination.coherentize (Exact.optimal_model g) g in
    let red = Reduce.reduce g model ~k:3 in
    incr total;
    if Eval.sentence g tri_free = Eval.sentence red.Reduce.kernel tri_free then
      incr agree
  done;
  row "\nG |= phi  <=>  kernel |= phi on random bounded-treedepth graphs: %d/%d\n"
    !agree !total

(* ------------------------------------------------------------------ *)
(* E8: Lemma 2.1 — small fragments.                                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "Lemma 2.1: existential FO (O(k log n)) and depth-2 FO (O(log n))";
  row "existential sentences ∃x1…xk (adjacent chain) on paths:\n";
  row "%6s" "k\\n";
  let ns = [ 16; 64; 256; 1024 ] in
  List.iter (fun n -> row "%10d" n) ns;
  row "\n";
  List.iter
    (fun k ->
      row "%6d" k;
      let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
      let rec chain = function
        | a :: b :: rest -> Formula.Adj (a, b) :: chain (b :: rest)
        | _ -> []
      in
      let phi = Formula.exists_many xs (Formula.conj (Formula.distinct xs :: chain xs)) in
      let scheme = Existential_fo.make phi in
      List.iter (fun n -> row "%10s" (size_of scheme (inst (Gen.path n)))) ns;
      row "\n")
    [ 1; 2; 3 ];
  row "\ndepth-2 primitives (Lemma A.3) on suitable instances:\n";
  row "%-20s %10s %10s %10s\n" "scheme" "instance" "bits" "verdict";
  let cases =
    [
      (Depth2_fo.is_clique, "K_32", Gen.clique 32);
      (Depth2_fo.not_clique, "star_64", Gen.star 64);
      (Depth2_fo.has_dominating_vertex, "star_256", Gen.star 256);
      (Depth2_fo.no_dominating_vertex, "P_256", Gen.path 256);
    ]
  in
  List.iter
    (fun (scheme, name, g) ->
      let i = inst g in
      row "%-20s %10s %10s %10s\n" scheme.Scheme.name name (size_of scheme i)
        (check_accepts scheme i))
    cases

(* ------------------------------------------------------------------ *)
(* E9: Corollary 2.7 — minor-free classes.                            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "Cor 2.7: P_t- and C_t-minor-free certification";
  row "P_4-minor-free (no path on 4 vertices; treedepth <= 3 + kernel-MSO):\n";
  row "%-14s %6s %10s %10s\n" "instance" "n" "bits" "verdict";
  List.iter
    (fun (name, g) ->
      let scheme = Minor_free.path_minor_free ~t:4 in
      let i = inst g in
      row "%-14s %6d %10s %10s\n" name (Graph.n g) (size_of scheme i)
        (check_accepts scheme i))
    [
      ("star_8", Gen.star 8);
      ("star_16", Gen.star 16);
      ("K_3", Gen.clique 3);
      ("P_6 (no!)", Gen.path 6);
    ];
  row "\nC_4-minor-free block analysis (triangle chain):\n";
  let g =
    Graph.of_edges ~n:10
      [
        (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5); (3, 5); (5, 6);
        (6, 7); (7, 8); (6, 8); (8, 9);
      ]
  in
  (match Minor_free.cycle_block_analysis ~t:4 (inst g) with
  | Some r ->
      row "  blocks=%d  max block size=%d  per-vertex worst=%d bits\n"
        r.Minor_free.blocks r.Minor_free.max_block_size r.Minor_free.max_vertex_bits
  | None -> row "  unexpectedly found a C4 minor\n");
  row "  (full block-decomposition certification is [8]'s machinery; see DESIGN.md)\n"

(* ------------------------------------------------------------------ *)
(* E10: Figure 1 — the elimination tree of P7.                        *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "Fig 1: elimination tree of P7; treedepth of paths";
  let model = Elimination.of_path 7 in
  row "P7 = 0-1-2-3-4-5-6; balanced elimination tree (parent pointers):\n";
  Format.printf "  %a@." Elimination.pp model;
  row "height (levels) = %d; the paper's Fig-1 caption counts edges: %d\n"
    (Elimination.height model)
    (Elimination.height model - 1);
  row "\n%8s %16s %18s\n" "n" "td(P_n) exact" "ceil(log2(n+1))";
  List.iter
    (fun n ->
      row "%8d %16d %18d\n"
        n
        (if n <= 16 then Exact.treedepth (Gen.path n) else Exact.path_treedepth n)
        (Combin.ceil_log2 (n + 1)))
    [ 1; 3; 7; 15; 31; 63; 127 ]

(* ------------------------------------------------------------------ *)
(* E11: Section 2.2 — the generic case and the universal fallback.    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "Sec 2.2: generic-case sentences and the universal O(n²) fallback";
  let diam2 = Props.diameter_at_most_2 in
  let tri = Props.triangle_free in
  row "the paper's two hard FO sentences, evaluated:\n";
  List.iter
    (fun (name, g) ->
      row "  %-12s diameter<=2: %-5b  triangle-free: %-5b\n" name
        (diam2.Props.check g) (tri.Props.check g))
    [
      ("star_16", Gen.star 16);
      ("P_5", Gen.path 5);
      ("C_5", Gen.cycle 5);
      ("K_6", Gen.clique 6);
    ];
  row "\nuniversal scheme size (the only generic upper bound), Θ(n²)-regime:\n";
  row "%8s %16s %16s\n" "n" "clique bits" "random bits";
  let rng = Rng.make 11 in
  List.iter
    (fun n ->
      row "%8d %16d %16d\n" n
        (Universal.cert_size (inst (Gen.clique n)))
        (Universal.cert_size (inst (Gen.random_connected rng ~n ~extra_edges:(2 * n)))))
    [ 8; 16; 32; 64; 128 ]

(* ------------------------------------------------------------------ *)
(* E12: completeness / soundness audit across all schemes.  Returns  *)
(* the number of failed audits, so bench/main.exe can exit non-zero. *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "Audit: completeness on yes-instances, attacks on no-instances";
  let rng = Rng.make 99 in
  let completeness = ref 0 and completeness_total = ref 0 in
  let soundness = ref 0 and soundness_total = ref 0 in
  let audit_yes scheme i =
    incr completeness_total;
    match Scheme.certify scheme i with
    | Some (_, o) when o.Scheme.accepted -> incr completeness
    | _ -> Printf.printf "  COMPLETENESS FAILURE: %s\n" scheme.Scheme.name
  in
  let audit_no scheme i =
    incr soundness_total;
    let r = Attack.random_assignments rng scheme i ~trials:60 ~max_bits:24 in
    match r.Attack.fooled with
    | None -> incr soundness
    | Some _ -> Printf.printf "  SOUNDNESS FAILURE: %s\n" scheme.Scheme.name
  in
  (* yes-instances *)
  audit_yes (Spanning_tree.scheme ()) (inst (Gen.cycle 9));
  audit_yes Spanning_tree.acyclicity (inst (Gen.complete_binary_tree 3));
  audit_yes
    (Spanning_tree.vertex_count ~expected:(fun n -> n = 12) "n=12")
    (inst (Gen.grid 3 4));
  audit_yes (Tree_mso.make Library.has_perfect_matching.Library.auto)
    (inst (Gen.path 10));
  audit_yes (Tree_mso.make (Library.diameter_at_most 4).Library.auto)
    (inst (Gen.star 9));
  audit_yes (Treedepth_cert.make ~t:4 ()) (inst (Gen.cycle 8));
  audit_yes
    (Kernel_mso.make ~t:2 (Parser.parse_exn "exists x. forall y. x = y | x -- y"))
    (inst (Gen.star 10));
  audit_yes
    (Existential_fo.make (Parser.parse_exn "exists x. exists y. x -- y"))
    (inst (Gen.path 9));
  audit_yes Depth2_fo.has_dominating_vertex (inst (Gen.star 12));
  audit_yes (Minor_free.path_minor_free ~t:4) (inst (Gen.star 8));
  (* no-instances *)
  audit_no Spanning_tree.acyclicity (inst (Gen.cycle 7));
  audit_no
    (Spanning_tree.vertex_count ~expected:(fun n -> n = 11) "n=11")
    (inst (Gen.grid 3 4));
  audit_no (Tree_mso.make Library.has_perfect_matching.Library.auto)
    (inst (Gen.path 9));
  audit_no (Treedepth_cert.make ~t:3 ()) (inst (Gen.path 8));
  audit_no
    (Kernel_mso.make ~t:3 (Parser.parse_exn "exists x. forall y. x = y | x -- y"))
    (inst (Gen.path 6));
  audit_no
    (Existential_fo.make
       (Parser.parse_exn "exists x. exists y. exists z. x -- y & y -- z & x -- z"))
    (inst (Gen.cycle 6));
  audit_no Depth2_fo.is_clique (inst (Gen.star 6));
  audit_no (Minor_free.path_minor_free ~t:4) (inst (Gen.path 5));
  row "completeness: %d/%d accepted\n" !completeness !completeness_total;
  row "soundness:    %d/%d no-instances survived random attacks\n" !soundness
    !soundness_total;
  (* one exhaustive refutation for the record *)
  let r = Attack.exhaustive Spanning_tree.acyclicity (inst (Gen.cycle 3)) ~max_bits:2 in
  row "exhaustive (C3, <=2-bit certs): %d assignments, fooled: %b\n"
    r.Attack.trials
    (r.Attack.fooled <> None);
  !completeness_total - !completeness + !soundness_total - !soundness
  + if r.Attack.fooled <> None then 1 else 0

(* ------------------------------------------------------------------ *)
(* E13: ablations — the design choices DESIGN.md calls out.           *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "Ablations: model quality, kernel parameter k, identifier range";
  (* (a) the elimination tree quality drives the Thm-2.4 size: a deep
     model (the tree itself, rooted) vs the centroid decomposition *)
  row "(a) treedepth certificate vs model choice, on random trees:\n";
  row "%8s %16s %16s %18s %18s\n" "n" "centroid height" "rooted height"
    "centroid bits" "rooted-model bits";
  let rng = Rng.make 13 in
  List.iter
    (fun n ->
      let g = Gen.random_tree rng n in
      let centroid = Elimination.centroid_of_tree g in
      (* the tree itself, rooted at vertex 0, is a (deep) model *)
      let sp = Spanning.bfs g ~root:0 in
      let rooted = Elimination.make ~parent:sp.Spanning.parent in
      let i = inst g in
      let bits model = Treedepth_cert.cert_size ~t:n model i in
      row "%8d %16d %16d %18d %18d\n" n (Elimination.height centroid)
        (Elimination.height rooted) (bits centroid) (bits rooted))
    [ 32; 64; 128 ];
  (* (b) kernel parameter sensitivity *)
  row "\n(b) kernel size vs k (caterpillar spine 3, legs 24, t = 4):\n";
  row "%6s %14s %14s\n" "k" "kernel |V|" "kernel bits";
  let g = Gen.caterpillar ~spine:3 ~legs:24 in
  let model =
    Elimination.coherentize (Elimination.of_caterpillar ~spine:3 ~legs:24) g
  in
  List.iter
    (fun k ->
      let red = Reduce.reduce g model ~k in
      let rows_bits =
        (* reuse the measure plumbing through a rank-k tautology *)
        match
          Kernel_mso.measure ~k ~t:4 model (Parser.parse_exn "forall x. x = x")
            (inst g)
        with
        | Some m -> m.Kernel_mso.kernel_bits
        | None -> -1
      in
      row "%6d %14d %14d\n" k (Reduce.kernel_size red) rows_bits)
    [ 1; 2; 3; 4 ];
  (* (c) identifier range: the log n factors are really id widths *)
  row "\n(c) spanning-tree certificate vs identifier range (n = 128):\n";
  let g = Gen.path 128 in
  let small = inst g in
  let wide = Instance.with_random_ids ~range_exp:3 (Rng.make 7) small in
  row "  ids in [1,n]:    %s bits (id width %d)\n"
    (size_of (Spanning_tree.scheme ()) small)
    small.Instance.id_bits;
  row "  ids in [1,n^3]:  %s bits (id width %d)\n"
    (size_of (Spanning_tree.scheme ()) wide)
    wide.Instance.id_bits

(* ------------------------------------------------------------------ *)
(* E14: Appendix A.1 — verification radius 1 vs d+1.                  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "App A.1: radius matters — diameter <= 2 with and without certificates";
  row "radius-3 scheme (no certificates at all):\n";
  List.iter
    (fun (name, g) ->
      let scheme = Radius.diameter_at_most ~d:2 in
      let i = inst g in
      match Radius.certify scheme i with
      | Some (_, o) ->
          row "  %-10s -> %s with 0 bits\n" name
            (if o.Scheme.accepted then "accept" else "REJECT")
      | None ->
          (* run the empty assignment anyway: soundness in action *)
          let o = Radius.run scheme i (Array.make (Graph.n g) Bitstring.empty) in
          row "  %-10s -> %s (diameter > 2 detected locally)\n" name
            (if o.Scheme.accepted then "ACCEPTED(bug)" else "reject"))
    [
      ("star_32", Gen.star 32);
      ("C5", Gen.cycle 5);
      ("P6", Gen.path 6);
      ("C8", Gen.cycle 8);
    ];
  row "\nradius-1 needs certificates (near-linear, [10]); the universal\n";
  row "fallback measured:\n";
  List.iter
    (fun n ->
      let g = Gen.star n in
      row "  star_%-4d -> %s bits at radius 1\n" n
        (size_of (Universal.make ~name:"diam<=2" Props.diameter_at_most_2.Props.check)
           (inst g)))
    [ 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* E15: Appendix C.2 — UOP tables in certificates, and threshold LCLs.*)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "App C.2: automaton descriptions in certificates; threshold LCLs";
  row "the literal Thm-2.2 certificate = mod-3 counter + state + description of A:\n";
  row "%-24s %12s %12s %14s %10s\n" "UOP table" "table bits" "cert bits"
    "threshold" "states";
  List.iter
    (fun (name, table) ->
      let scheme = Tree_mso.make_table table in
      let g =
        (* a tree accepted by each listed table *)
        match name with
        | "uop:perfect-matching" -> Gen.path 8
        | "uop:height<=3" -> Gen.star 9
        | "uop:diameter<=2" | "uop:diameter<=4" -> Gen.star 9
        | _ -> Gen.path 9
      in
      match Scheme.certificate_size scheme (inst g) with
      | Some bits ->
          row "%-24s %12d %12d %14d %10d\n" name
            (Bitstring.length (Localcert_automata.Uop.encode table))
            bits
            (Localcert_automata.Uop.threshold table)
            table.Localcert_automata.Uop.states
      | None -> row "%-24s %12s\n" name "declined")
    Localcert_automata.Uop.all_named;
  row "\n(the 16-bit fingerprint variant of E2 abbreviates exactly this table)\n";
  row "\nthreshold LCLs (labels certified in constant bits):\n";
  let rng = Rng.make 55 in
  let g = Gen.random_connected rng ~n:40 ~extra_edges:20 in
  List.iter
    (fun (lcl, solve) ->
      let scheme = Lcl.scheme_of_search lcl ~solve in
      match Scheme.certify scheme (inst g) with
      | Some (_, o) ->
          row "  %-28s n=40 -> %s, %d bit(s) per node\n" lcl.Lcl.name
            (if o.Scheme.accepted then "accept" else "REJECT")
            o.Scheme.max_bits
      | None -> row "  %-28s n=40 -> no labeling found\n" lcl.Lcl.name)
    [
      (Lcl.maximal_independent_set, fun g -> Some (Lcl.greedy_mis g));
      (Lcl.proper_coloring ~colors:8, Lcl.greedy_coloring ~colors:8);
      (Lcl.weak_2_coloring, fun g -> Some (Lcl.bfs_parity_coloring g));
    ]

(* ------------------------------------------------------------------ *)
(* E16: Section 3.1 — the width-parameter landscape.                  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "Sec 3.1: treewidth <= pathwidth <= treedepth - 1, measured";
  row "%-16s %6s %6s %6s %6s %10s\n" "graph" "n" "tw" "pw" "td" "chain ok";
  List.iter
    (fun (name, g) ->
      let tw = Treewidth.treewidth g in
      let pw = Treewidth.pathwidth g in
      let td = Exact.treedepth g in
      row "%-16s %6d %6d %6d %6d %10b\n" name (Graph.n g) tw pw td
        (tw <= pw && pw <= td - 1))
    [
      ("P16", Gen.path 16);
      ("C12", Gen.cycle 12);
      ("star_12", Gen.star 12);
      ("K6", Gen.clique 6);
      ("cbt h=3", Gen.complete_binary_tree 3);
      ("grid 3x4", Gen.grid 3 4);
      ("caterpillar", Gen.caterpillar ~spine:4 ~legs:2);
      ("td-gadget m=2",
       (Treedepth_gadget.build_from_permutations ~m:2 [| 0; 1 |] [| 0; 1 |])
         .Instance.graph);
    ];
  row "\npaths separate the parameters: tw = pw = 1 but td = ceil(log2(n+1)):\n";
  List.iter
    (fun n ->
      row "  P_%-5d tw=%d pw=%d td=%d\n" n
        (Treewidth.treewidth (Gen.path n))
        (Treewidth.pathwidth (Gen.path n))
        (Exact.path_treedepth n))
    [ 7; 15 ];
  (* a valid decomposition out of an elimination tree, executably *)
  let g = Gen.cycle 10 in
  let model = Exact.optimal_model g in
  let d = Treewidth.decomposition_of_elimination g model in
  row "\nC10: elimination tree of height %d gives a (validated) tree\n"
    (Elimination.height model);
  row "decomposition of width %d; optimal treewidth is %d.\n" (Treewidth.width d)
    (Treewidth.treewidth g)

(* ------------------------------------------------------------------ *)
(* E17: Section 4's word-automata backdrop on labeled paths.          *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17" "Sec 4: regular languages on labeled paths, O(1) bits";
  let rng = Rng.make 23 in
  (* per language, craft a word of roughly the requested length that
     belongs to it *)
  let even_word n =
    let w = Array.init n (fun _ -> Rng.int rng 2) in
    let ones = Array.fold_left ( + ) 0 w in
    if ones mod 2 = 1 then w.(0) <- 1 - w.(0);
    (n, w)
  in
  let alternating n = (n, Array.init n (fun i -> i mod 2)) in
  let with_factor n =
    let w = Array.init n (fun _ -> Rng.int rng 2) in
    w.(n / 2) <- 1;
    w.((n / 2) + 1) <- 0;
    w.((n / 2) + 2) <- 1;
    (n, w)
  in
  let length_one_mod_3 n =
    let n = (n / 3 * 3) + 1 in
    (n, Array.make n 0)
  in
  let cases =
    [
      (Word.even_count_of ~letter:1 ~alphabet:2, even_word);
      (Word.no_two_consecutive ~letter:1 ~alphabet:2, alternating);
      (Word.contains_factor ~word:[ 1; 0; 1 ] ~alphabet:2, with_factor);
      (Word.length_mod ~modulus:3 ~residue:1 ~alphabet:2, length_one_mod_3);
    ]
  in
  row "%-22s %10s %10s %10s %8s %14s\n" "language" "~32" "~128" "~512" "states"
    "reversal-inv";
  List.iter
    (fun (dfa, build) ->
      let scheme = Tree_mso.make (Word.to_tree_automaton dfa) in
      let cell n =
        let actual, labels = build n in
        let i = Instance.make ~labels (Gen.path actual) in
        match Scheme.certificate_size scheme i with
        | Some b -> Printf.sprintf "%d@n=%d" b actual
        | None -> "-"
      in
      row "%-22s %10s %10s %10s %8d %14b\n" dfa.Word.name (cell 32) (cell 128)
        (cell 512) dfa.Word.states
        (Word.reversal_invariant dfa))
    cases;
  row "\n(modular counting IS regular/MSO on ordered words — contrast with\n";
  row "even-order on unordered trees, the non-threshold control of E2/E15)\n"

let run_all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  let audit_failures = e12 () in
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  audit_failures

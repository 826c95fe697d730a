(* Tests for the graph substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng () = Rng.make 2024

let basic_construction () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 1) ] in
  check_int "n" 4 (Graph.n g);
  check_int "m dedups" 3 (Graph.m g);
  check "mem_edge" true (Graph.mem_edge g 1 2);
  check "mem_edge symmetric" true (Graph.mem_edge g 2 1);
  check "non-edge" false (Graph.mem_edge g 0 3);
  check_int "degree" 2 (Graph.degree g 1);
  Alcotest.(check (list (pair int int)))
    "edges sorted" [ (0, 1); (1, 2); (2, 3) ] (Graph.edges g)

let rejects_loops_and_bad_vertices () =
  check "loop" true
    (try ignore (Graph.of_edges ~n:3 [ (1, 1) ]); false
     with Invalid_argument _ -> true);
  check "out of range" true
    (try ignore (Graph.of_edges ~n:3 [ (0, 3) ]); false
     with Invalid_argument _ -> true)

let traversal () =
  let g = Gen.path 6 in
  let d = Graph.bfs_dist g 0 in
  Alcotest.(check (array int)) "bfs dists" [| 0; 1; 2; 3; 4; 5 |] d;
  check "connected" true (Graph.is_connected g);
  check_int "diameter" 5 (Graph.diameter g);
  check "tree" true (Graph.is_tree g);
  check "acyclic" true (Graph.is_acyclic g);
  let c = Gen.cycle 6 in
  check "cycle not tree" false (Graph.is_tree c);
  check "cycle not acyclic" false (Graph.is_acyclic c);
  check_int "cycle diameter" 3 (Graph.diameter c)

let components_and_removal () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (3, 4) ] in
  check_int "three components" 3 (List.length (Graph.components g));
  check "disconnected" false (Graph.is_connected g);
  let h = Graph.remove_vertex (Gen.path 5) 2 in
  check_int "n after removal" 4 (Graph.n h);
  check_int "two components" 2 (List.length (Graph.components h))

let induced_subgraph () =
  let g = Gen.cycle 6 in
  let sub, back = Graph.induced g [ 0; 1; 2; 5 ] in
  check_int "n" 4 (Graph.n sub);
  (* edges 0-1, 1-2, 5-0 survive *)
  check_int "m" 3 (Graph.m sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2; 5 |] back

let relabel_union () =
  let g = Gen.path 3 in
  let h = Graph.relabel g [| 2; 0; 1 |] in
  (* edges (0,1),(1,2) become (2,0),(0,1) *)
  check "relabel edge 1" true (Graph.mem_edge h 0 2);
  check "relabel edge 2" true (Graph.mem_edge h 0 1);
  let u = Graph.disjoint_union g g in
  check_int "union n" 6 (Graph.n u);
  check_int "union m" 4 (Graph.m u);
  check "union disconnected" false (Graph.is_connected u)

let generators_shapes () =
  check_int "path n" 7 (Graph.n (Gen.path 7));
  check_int "star m" 9 (Graph.m (Gen.star 10));
  check_int "clique m" 45 (Graph.m (Gen.clique 10));
  check_int "cbt n" 15 (Graph.n (Gen.complete_binary_tree 3));
  check "cbt is tree" true (Graph.is_tree (Gen.complete_binary_tree 3));
  let cat = Gen.caterpillar ~spine:4 ~legs:2 in
  check_int "caterpillar n" 12 (Graph.n cat);
  check "caterpillar tree" true (Graph.is_tree cat);
  let sp = Gen.spider ~legs:3 ~leg_len:4 in
  check_int "spider n" 13 (Graph.n sp);
  check "spider tree" true (Graph.is_tree sp);
  check_int "spider diameter" 8 (Graph.diameter sp);
  let gr = Gen.grid 3 4 in
  check_int "grid n" 12 (Graph.n gr);
  check_int "grid m" 17 (Graph.m gr)

let random_trees_are_trees () =
  let r = rng () in
  for n = 1 to 30 do
    let t = Gen.random_tree r n in
    check "tree" true (Graph.is_tree t)
  done

let random_bounded_depth_trees () =
  let r = rng () in
  for _ = 1 to 20 do
    let t = Gen.random_tree_bounded_depth r ~n:20 ~depth:3 in
    check "tree" true (Graph.is_tree t);
    let d = Graph.bfs_dist t 0 in
    check "depth bound" true (Array.for_all (fun x -> x <= 3) d)
  done

let random_connected_graphs () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_connected r ~n:15 ~extra_edges:6 in
    check "connected" true (Graph.is_connected g);
    check_int "m" 20 (Graph.m g)
  done

let random_bounded_treedepth_graphs () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_bounded_treedepth r ~n:14 ~depth:4 ~p:0.5 in
    check "connected" true (Graph.is_connected g);
    check "treedepth bound" true (Exact.treedepth g <= 4)
  done

(* --- rooted trees --- *)

let rooted_roundtrip () =
  let t =
    Rooted.node [ Rooted.leaf (); Rooted.node [ Rooted.leaf (); Rooted.leaf () ] ]
  in
  check_int "size" 5 (Rooted.size t);
  check_int "height" 2 (Rooted.height t);
  let g, _ = Rooted.to_graph t in
  check "tree" true (Graph.is_tree g);
  let t' = Rooted.of_graph g ~root:0 in
  check "roundtrip iso" true (Rooted.iso t t')

let rooted_iso_invariance () =
  let a =
    Rooted.node [ Rooted.node [ Rooted.leaf () ]; Rooted.leaf (); Rooted.leaf () ]
  in
  let b =
    Rooted.node [ Rooted.leaf (); Rooted.node [ Rooted.leaf () ]; Rooted.leaf () ]
  in
  check "child order irrelevant" true (Rooted.iso a b);
  let c = Rooted.node [ Rooted.leaf (); Rooted.leaf () ] in
  check "different trees" false (Rooted.iso a c)

let rooted_labels_matter () =
  let a = Rooted.node ~label:1 [ Rooted.leaf () ] in
  let b = Rooted.node ~label:2 [ Rooted.leaf () ] in
  check "labels distinguish" false (Rooted.iso a b)

let rooted_enumeration_counts () =
  (* OEIS A000081: rooted trees on n nodes: 1,1,2,4,9,20,48 *)
  List.iter
    (fun (n, expected) ->
      check_int
        (Printf.sprintf "trees on %d nodes" n)
        expected
        (List.length (Rooted.all_of_size n)))
    [ (1, 1); (2, 1); (3, 2); (4, 4); (5, 9); (6, 20); (7, 48) ]

let rooted_enumeration_distinct () =
  let ts = Rooted.all_of_size 6 in
  let keys = List.map Rooted.canonical ts in
  check_int "no duplicates" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let rooted_bounded_height_counts () =
  (* depth <= 1: stars only -> exactly 1 per size; depth <= 2 on 4
     nodes: root with subtrees of height <= 1 *)
  check_int "height<=1 size 5" 1 (List.length (Rooted.all_of_size ~max_height:1 5));
  List.iter
    (fun (n, d) ->
      check_int
        (Printf.sprintf "count_by_depth consistent n=%d d=%d" n d)
        (List.length (Rooted.all_of_size ~max_height:d n))
        (Rooted.count_by_depth ~n ~depth:d))
    [ (4, 1); (4, 2); (4, 3); (5, 2); (6, 2); (6, 3); (7, 2); (7, 3); (8, 3) ]

let rooted_count_growth () =
  (* the depth-3 count grows super-polynomially: the Theorem 2.3 fuel *)
  let c10 = Rooted.count_by_depth ~n:10 ~depth:3 in
  let c20 = Rooted.count_by_depth ~n:20 ~depth:3 in
  check "monotone growth" true (c20 > 100 * c10)

(* --- isomorphism --- *)

let iso_basic () =
  let p4 = Gen.path 4 in
  let p4' = Graph.relabel p4 [| 3; 1; 0; 2 |] in
  check "relabel iso" true (Iso.isomorphic p4 p4');
  check "path vs star" false (Iso.isomorphic (Gen.path 4) (Gen.star 4));
  check "path vs cycle" false (Iso.isomorphic (Gen.path 5) (Gen.cycle 5))

let iso_automorphisms () =
  (* path P3 has exactly 2 automorphisms; C4 has 8; K4 has 24 *)
  check_int "P3 automorphisms" 2 (List.length (Iso.automorphisms (Gen.path 3)));
  check_int "C4 automorphisms" 8 (List.length (Iso.automorphisms (Gen.cycle 4)));
  check_int "K4 automorphisms" 24 (List.length (Iso.automorphisms (Gen.clique 4)))

let iso_fixed_point_free () =
  check "P2 has fpf" true (Iso.has_fixed_point_free_automorphism (Gen.path 2));
  check "P3 no fpf" false (Iso.has_fixed_point_free_automorphism (Gen.path 3));
  check "C4 has fpf" true (Iso.has_fixed_point_free_automorphism (Gen.cycle 4));
  check "C5 has fpf" true (Iso.has_fixed_point_free_automorphism (Gen.cycle 5));
  check "star no fpf" false (Iso.has_fixed_point_free_automorphism (Gen.star 5))

(* --- longest paths and cycles --- *)

let paths_metrics () =
  check_int "path longest" 6 (Paths.longest_path (Gen.path 6));
  check_int "cycle longest path" 6 (Paths.longest_path (Gen.cycle 6));
  check_int "star longest" 3 (Paths.longest_path (Gen.star 6));
  check_int "clique longest" 5 (Paths.longest_path (Gen.clique 5));
  check_int "path circumference" 0 (Paths.circumference (Gen.path 6));
  check_int "cycle circumference" 6 (Paths.circumference (Gen.cycle 6));
  check_int "clique circumference" 5 (Paths.circumference (Gen.clique 5));
  check_int "grid circumference" 12 (Paths.circumference (Gen.grid 3 4))

let paths_minors () =
  check "P4 minor in P6" true (Paths.has_path_minor (Gen.path 6) 4);
  check "P7 minor not in P6" false (Paths.has_path_minor (Gen.path 6) 7);
  check "C4 minor in C6" true (Paths.has_cycle_minor (Gen.cycle 6) 4);
  check "C7 minor not in C6" false (Paths.has_cycle_minor (Gen.cycle 6) 7);
  check "no cycle minor in tree" false
    (Paths.has_cycle_minor (Gen.complete_binary_tree 3) 3)

(* --- blocks --- *)

let bicomp_basics () =
  (* two triangles sharing vertex 2: cut vertex 2, two blocks *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  Alcotest.(check (list int)) "cut vertices" [ 2 ] (Bicomp.cut_vertices g);
  check_int "blocks" 2 (List.length (Bicomp.blocks g));
  (* a path: every internal vertex is a cut vertex, each edge a block *)
  let p = Gen.path 5 in
  Alcotest.(check (list int)) "path cuts" [ 1; 2; 3 ] (Bicomp.cut_vertices p);
  check_int "path blocks" 4 (List.length (Bicomp.blocks p));
  (* a cycle: 2-connected, one block, no cut vertex *)
  let c = Gen.cycle 5 in
  Alcotest.(check (list int)) "cycle cuts" [] (Bicomp.cut_vertices c);
  check_int "cycle blocks" 1 (List.length (Bicomp.blocks c))

let bicomp_edge_partition () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_connected r ~n:12 ~extra_edges:4 in
    let blocks = Bicomp.blocks g in
    let covered =
      List.concat_map
        (List.map (fun (u, v) -> if u < v then (u, v) else (v, u)))
        blocks
    in
    Alcotest.(check (list (pair int int)))
      "blocks partition the edges" (Graph.edges g)
      (List.sort compare covered)
  done

(* --- spanning trees --- *)

let spanning_basics () =
  let g = Gen.cycle 6 in
  let sp = Spanning.bfs g ~root:0 in
  check_int "root dist" 0 sp.Spanning.dist.(0);
  check_int "root parent" (-1) sp.Spanning.parent.(0);
  check "tree" true (Graph.is_tree (Spanning.to_graph sp));
  let sizes = Spanning.subtree_sizes sp in
  check_int "root subtree size" 6 sizes.(0)

let spanning_sizes_sum () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_connected r ~n:20 ~extra_edges:8 in
    let sp = Spanning.bfs g ~root:3 in
    let sizes = Spanning.subtree_sizes sp in
    check_int "root covers all" 20 sizes.(3);
    (* each vertex: 1 + sum of children *)
    Array.iteri
      (fun v _ ->
        let kids = Spanning.children sp v in
        check_int "size recurrence" sizes.(v)
          (1 + List.fold_left (fun acc c -> acc + sizes.(c)) 0 kids))
      sizes
  done

let qcheck_random_tree_prufer =
  QCheck.Test.make ~name:"prufer trees are uniform-ish trees" ~count:50
    QCheck.(int_range 3 25)
    (fun n ->
      let t = Gen.random_tree (Rng.make n) n in
      Graph.is_tree t)

let qcheck_iso_under_relabel =
  QCheck.Test.make ~name:"graphs are isomorphic to their relabelings"
    ~count:40
    QCheck.(pair (int_range 2 8) int)
    (fun (n, seed) ->
      let r = Rng.make seed in
      let g = Gen.random_connected r ~n ~extra_edges:(Rng.int r 4) in
      let perm = Rng.permutation r n in
      Iso.isomorphic g (Graph.relabel g perm))

(* The edge-scan [induced] that predates the row walk, kept as the
   reference: an n-sized index and one [of_iter] over every edge. *)
let induced_reference g vs =
  let vs = List.sort_uniq Int.compare vs in
  let back = Array.of_list vs in
  let fwd = Array.make (Graph.n g) (-1) in
  Array.iteri (fun i v -> fwd.(v) <- i) back;
  let sub =
    Graph.of_iter ~n:(Array.length back) (fun f ->
        Graph.iter_edges g (fun u v ->
            let a = fwd.(u) and b = fwd.(v) in
            if a >= 0 && b >= 0 then f a b))
  in
  (sub, back)

(* Random graphs (connected, or two disjoint pieces) and vertex lists
   of four shapes: empty, the full set ascending, the full set
   descending, and a random unsorted list with repeats. *)
let qcheck_induced_vs_reference =
  QCheck.Test.make ~name:"induced = edge-scan reference" ~count:300
    QCheck.(triple (int_range 1 40) (int_range 0 3) int)
    (fun (n, shape, seed) ->
      let r = Rng.make seed in
      let g = Gen.random_connected r ~n ~extra_edges:(Rng.int r (3 * n)) in
      let g =
        if Rng.int r 3 = 0 then Graph.disjoint_union g (Gen.random_tree r n)
        else g
      in
      let size = Graph.n g in
      let vs =
        match shape with
        | 0 -> []
        | 1 -> List.init size Fun.id
        | 2 -> List.init size (fun i -> size - 1 - i)
        | _ -> List.init (Rng.int r (2 * size)) (fun _ -> Rng.int r size)
      in
      let sub, back = Graph.induced g vs in
      let sub', back' = induced_reference g vs in
      Graph.equal sub sub' && back = back')

let suite =
  [
    ( "graph:basic",
      [
        Alcotest.test_case "construction" `Quick basic_construction;
        Alcotest.test_case "rejects bad input" `Quick rejects_loops_and_bad_vertices;
        Alcotest.test_case "traversal" `Quick traversal;
        Alcotest.test_case "components/removal" `Quick components_and_removal;
        Alcotest.test_case "induced" `Quick induced_subgraph;
        QCheck_alcotest.to_alcotest qcheck_induced_vs_reference;
        Alcotest.test_case "relabel/union" `Quick relabel_union;
      ] );
    ( "graph:generators",
      [
        Alcotest.test_case "shapes" `Quick generators_shapes;
        Alcotest.test_case "random trees" `Quick random_trees_are_trees;
        Alcotest.test_case "bounded depth trees" `Quick random_bounded_depth_trees;
        Alcotest.test_case "random connected" `Quick random_connected_graphs;
        Alcotest.test_case "bounded treedepth" `Quick random_bounded_treedepth_graphs;
        QCheck_alcotest.to_alcotest qcheck_random_tree_prufer;
      ] );
    ( "graph:rooted",
      [
        Alcotest.test_case "roundtrip" `Quick rooted_roundtrip;
        Alcotest.test_case "iso invariance" `Quick rooted_iso_invariance;
        Alcotest.test_case "labels matter" `Quick rooted_labels_matter;
        Alcotest.test_case "enumeration counts (A000081)" `Quick rooted_enumeration_counts;
        Alcotest.test_case "enumeration distinct" `Quick rooted_enumeration_distinct;
        Alcotest.test_case "bounded-height counts" `Quick rooted_bounded_height_counts;
        Alcotest.test_case "depth-3 growth" `Quick rooted_count_growth;
      ] );
    ( "graph:iso",
      [
        Alcotest.test_case "basic" `Quick iso_basic;
        Alcotest.test_case "automorphism groups" `Quick iso_automorphisms;
        Alcotest.test_case "fixed-point-free" `Quick iso_fixed_point_free;
        QCheck_alcotest.to_alcotest qcheck_iso_under_relabel;
      ] );
    ( "graph:paths",
      [
        Alcotest.test_case "metrics" `Quick paths_metrics;
        Alcotest.test_case "minors" `Quick paths_minors;
      ] );
    ( "graph:bicomp",
      [
        Alcotest.test_case "basics" `Quick bicomp_basics;
        Alcotest.test_case "edge partition" `Quick bicomp_edge_partition;
      ] );
    ( "graph:spanning",
      [
        Alcotest.test_case "basics" `Quick spanning_basics;
        Alcotest.test_case "sizes sum" `Quick spanning_sizes_sum;
      ] );
  ]

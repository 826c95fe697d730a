type entry = {
  name : string;
  scheme : Scheme.t;
  instance : Rng.t -> Instance.t;
}

(* Half the instances keep the friendly v+1 identifiers, half redraw
   from a polynomial range — schemes must not depend on the numbering. *)
let with_ids rng g =
  let i = Instance.make g in
  if Rng.bool rng then Instance.with_random_ids rng i else i

let small_graph ?(max_n = 11) rng =
  let n = 2 + Rng.int rng (max_n - 1) in
  match Rng.int rng 6 with
  | 0 -> Gen.path n
  | 1 -> Gen.cycle (max 3 n)
  | 2 -> Gen.star n
  | 3 -> Gen.random_tree rng n
  | 4 -> Gen.random_connected rng ~n ~extra_edges:(Rng.int rng 4)
  | _ -> Gen.caterpillar ~spine:(1 + Rng.int rng 3) ~legs:(1 + Rng.int rng 2)

let small_tree rng =
  let n = 2 + Rng.int rng 10 in
  match Rng.int rng 4 with
  | 0 -> Gen.path n
  | 1 -> Gen.star n
  | 2 -> Gen.random_tree rng n
  | _ -> Gen.caterpillar ~spine:(1 + Rng.int rng 3) ~legs:(1 + Rng.int rng 2)

let general ?max_n rng = with_ids rng (small_graph ?max_n rng)
let trees rng = with_ids rng (small_tree rng)

let dominating = Parser.parse_exn "exists x. forall y. x = y | x -- y"
let some_edge = Parser.parse_exn "exists x. exists y. x -- y"

let all =
  [
    { name = "spanning"; scheme = Spanning_tree.scheme (); instance = general };
    { name = "acyclic"; scheme = Spanning_tree.acyclicity; instance = general };
    {
      name = "treedepth";
      scheme = Treedepth_cert.make ~t:4 ();
      instance = general;
    };
    {
      name = "kernel-mso";
      scheme = Kernel_mso.make ~t:3 dominating;
      instance = general ~max_n:8;
    };
    {
      name = "existential";
      scheme = Existential_fo.make some_edge;
      instance = general;
    };
    {
      name = "universal";
      scheme = Universal.of_formula dominating;
      instance = general ~max_n:9;
    };
    {
      name = "path-minor-free";
      scheme = Minor_free.path_minor_free ~t:4;
      instance = general;
    };
    {
      name = "tree-mso:perfect-matching";
      scheme =
        Tree_mso.make
          Localcert_automata.Library.has_perfect_matching
            .Localcert_automata.Library.auto;
      instance = trees;
    };
    {
      name = "lcl:mis";
      scheme =
        Lcl.scheme_of_search Lcl.maximal_independent_set ~solve:(fun g ->
            Some (Lcl.greedy_mis g));
      instance = general;
    };
    {
      name = "depth2:dominating";
      scheme = Depth2_fo.has_dominating_vertex;
      instance = general;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

(* One line per family: the registry name, the (possibly
   parameterized) name of the pinned default scheme, and the compiled
   engine path every scheme's lowering takes. *)
let summary () =
  List.map
    (fun e ->
      if e.name = e.scheme.Scheme.name then e.name ^ " [compiled]"
      else Printf.sprintf "%s (%s) [compiled]" e.name e.scheme.Scheme.name)
    all

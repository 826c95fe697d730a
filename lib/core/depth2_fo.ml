let always _ = true
let any_local ~total:_ ~me:_ ~degree:_ = true
let any_root ~total:_ ~degree:_ = true

let at_most_one_vertex =
  Scheme.trivial ~name:"depth2[n<=1]" (fun ~degree ->
      if degree = 0 then Accept
      else Reject "has a neighbor, so n > 1")

let more_than_one_vertex =
  Scheme.trivial ~name:"depth2[n>1]" (fun ~degree ->
      if degree > 0 then Accept
      else Reject "isolated, so n = 1 on a connected graph")

let is_clique =
  Spanning_tree.counted ~name:"depth2[clique]" ~total_pred:always
    ~local:(fun ~total ~me:_ ~degree -> degree = total - 1)
    ~root_check:any_root ()

let no_dominating_vertex =
  Spanning_tree.counted ~name:"depth2[no-dominating]" ~total_pred:always
    ~local:(fun ~total ~me:_ ~degree -> degree < total - 1)
    ~root_check:any_root ()

let has_dominating_vertex =
  Spanning_tree.counted
    ~choose_root:(fun g ->
      List.find_opt (fun v -> Graph.degree g v = Graph.n g - 1) (Graph.vertices g))
    ~name:"depth2[has-dominating]" ~total_pred:always ~local:any_local
    ~root_check:(fun ~total ~degree -> degree = total - 1)
    ()

let not_clique =
  Spanning_tree.counted
    ~choose_root:(fun g ->
      List.find_opt (fun v -> Graph.degree g v < Graph.n g - 1) (Graph.vertices g))
    ~name:"depth2[not-clique]" ~total_pred:always ~local:any_local
    ~root_check:(fun ~total ~degree -> degree < total - 1)
    ()

let primitives =
  [
    ("n<=1", at_most_one_vertex);
    ("n>1", more_than_one_vertex);
    ("clique", is_clique);
    ("not-clique", not_clique);
    ("has-dominating", has_dominating_vertex);
    ("no-dominating", no_dominating_vertex);
  ]

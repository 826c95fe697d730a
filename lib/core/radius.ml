type ball = {
  center : int;
  graph : Graph.t;
  ids : int array;
  labels : int array;
  certs : Bitstring.t array;
  dist : int array;
  id_bits : int;
}

type t = {
  name : string;
  radius : int;
  prover : Instance.t -> Bitstring.t array option;
  verifier : ball -> Scheme.verdict;
}

let ball_of (inst : Instance.t) certs ~r v =
  let g = inst.Instance.graph in
  let full_dist = Graph.bfs_dist g v in
  let members =
    List.filter (fun u -> full_dist.(u) >= 0 && full_dist.(u) <= r)
      (Graph.vertices g)
  in
  (* put the center first so its local index is 0 *)
  let members = v :: List.filter (fun u -> u <> v) members in
  let sub, _ = Graph.induced g members in
  (* Graph.induced sorts members; rebuild with our explicit order *)
  ignore sub;
  let back = Array.of_list members in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i u -> Hashtbl.replace fwd u i) back;
  let edges =
    List.filter_map
      (fun (a, b) ->
        match (Hashtbl.find_opt fwd a, Hashtbl.find_opt fwd b) with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
      (Graph.edges g)
  in
  {
    center = 0;
    graph = Graph.of_edges ~n:(Array.length back) edges;
    ids = Array.map (fun u -> inst.Instance.ids.(u)) back;
    labels = Array.map (fun u -> inst.Instance.labels.(u)) back;
    certs = Array.map (fun u -> certs.(u)) back;
    dist = Array.map (fun u -> full_dist.(u)) back;
    id_bits = inst.Instance.id_bits;
  }

let run scheme (inst : Instance.t) certs =
  let rejections = ref [] in
  for v = Graph.n inst.Instance.graph - 1 downto 0 do
    match scheme.verifier (ball_of inst certs ~r:scheme.radius v) with
    | Scheme.Accept -> ()
    | Scheme.Reject reason -> rejections := (v, reason) :: !rejections
  done;
  {
    Scheme.accepted = !rejections = [];
    rejections = !rejections;
    max_bits = Scheme.max_cert_bits certs;
  }

let certify scheme inst =
  match scheme.prover inst with
  | None -> None
  | Some certs -> Some (certs, run scheme inst certs)

let diameter_at_most ~d =
  {
    name = Printf.sprintf "diameter<=%d@radius%d" d (d + 1);
    radius = d + 1;
    prover =
      (fun inst ->
        if
          Graph.is_connected inst.Instance.graph
          && Graph.diameter inst.Instance.graph <= d
        then Some (Array.make (Instance.n inst) Bitstring.empty)
        else None);
    verifier =
      (fun ball ->
        (* certificates must be empty — this scheme uses none *)
        if Array.exists (fun c -> Bitstring.length c > 0) ball.certs then
          Scheme.Reject "this scheme uses no certificates"
        else if Array.exists (fun dv -> dv > d) ball.dist then
          Scheme.Reject "a vertex lies beyond the claimed diameter"
        else Scheme.Accept);
  }

let of_radius1 (s : Scheme.t) =
  {
    name = s.Scheme.name;
    radius = 1;
    prover = s.Scheme.prover;
    verifier =
      (fun ball ->
        let nbrs =
          List.filter_map
            (fun i ->
              if i <> ball.center && ball.dist.(i) = 1 then
                Some (ball.ids.(i), ball.certs.(i))
              else None)
            (List.init (Graph.n ball.graph) Fun.id)
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        Scheme.verify s
          {
            Scheme.me = ball.ids.(ball.center);
            id_bits = ball.id_bits;
            label = ball.labels.(ball.center);
            cert = ball.certs.(ball.center);
            nbrs;
          });
  }

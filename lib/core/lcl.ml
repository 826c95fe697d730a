module U = Localcert_automata.Uop
module TA = Localcert_automata.Tree_automaton

type t = { name : string; alphabet : int; constraints : U.constr array }

let valid_at lcl ~label ~neighbor_labels =
  if label < 0 || label >= lcl.alphabet then false
  else
    let counts = TA.counts_of_list neighbor_labels in
    U.holds lcl.constraints.(label) ~counts

let valid lcl g ~labels =
  Graph.fold_vertices
    (fun v acc ->
      acc
      && valid_at lcl ~label:labels.(v)
           ~neighbor_labels:
             (Array.to_list (Graph.neighbors g v) |> List.map (fun w -> labels.(w))))
    g true

let proper_coloring ~colors =
  if colors < 1 then invalid_arg "Lcl.proper_coloring";
  {
    name = Printf.sprintf "proper-%d-coloring" colors;
    alphabet = colors;
    constraints = Array.init colors (fun c -> U.count_le c 0);
  }

let maximal_independent_set =
  {
    name = "maximal-independent-set";
    alphabet = 2;
    constraints = [| U.count_ge 1 1 (* dominated *); U.count_le 1 0 (* independent *) |];
  }

let weak_2_coloring =
  {
    name = "weak-2-coloring";
    alphabet = 2;
    constraints = [| U.count_ge 1 1; U.count_ge 0 1 |];
  }

let at_most_k_neighbors_in_set k =
  {
    name = Printf.sprintf "at-most-%d-neighbors-in-set" k;
    alphabet = 2;
    constraints = [| U.count_le 1 k; U.Tru |];
  }

let greedy_coloring ~colors g =
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let ok = ref true in
  for v = 0 to n - 1 do
    let used =
      Array.to_list (Graph.neighbors g v)
      |> List.filter_map (fun w -> if labels.(w) >= 0 then Some labels.(w) else None)
    in
    match
      List.find_opt (fun c -> not (List.mem c used)) (List.init colors Fun.id)
    with
    | Some c -> labels.(v) <- c
    | None -> ok := false
  done;
  if !ok then Some labels else None

let greedy_mis g =
  let n = Graph.n g in
  let labels = Array.make n 0 in
  for v = 0 to n - 1 do
    let blocked =
      Array.exists (fun w -> w < v && labels.(w) = 1) (Graph.neighbors g v)
    in
    if not blocked then labels.(v) <- 1
  done;
  labels

let bfs_parity_coloring g =
  if Graph.n g = 0 then [||]
  else begin
    let dist = Graph.bfs_dist g 0 in
    Array.map (fun d -> if d >= 0 then d mod 2 else 0) dist
  end

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)
(* ------------------------------------------------------------------ *)

let label_bits lcl = max 1 (Combin.ceil_log2 (max 2 lcl.alphabet))

let encode_label lcl l =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:(label_bits lcl) l;
  Bitbuf.Writer.contents w

let decode_label lcl c =
  match
    Bitbuf.decode c (fun r -> Bitbuf.Reader.fixed r ~width:(label_bits lcl))
  with
  | Some l when l < lcl.alphabet -> Some l
  | _ -> None

let lowering lcl ~check_own : int option Scheme.lowering =
  {
    decode = (fun ~id_bits:_ c -> decode_label lcl c);
    check =
      (fun ~id_bits:_ ~me:_ ~label mine ~ids ~decs ~lo ~hi ->
        match mine with
        | None -> Reject "malformed label certificate"
        | Some mine -> (
            if check_own && mine <> label then
              Reject "certificate does not match my input label"
            else
              match Scheme.decoded_neighbors ~ids ~decs ~lo ~hi with
              | None -> Reject "malformed neighbor certificate"
              | Some nbrs ->
                  if
                    valid_at lcl ~label:mine
                      ~neighbor_labels:(List.map snd nbrs)
                  then Accept
                  else Reject "local constraint violated"));
    flat = None;
  }

let scheme_of_labeled lcl =
  Scheme.of_lowering
    ~name:("lcl[" ^ lcl.name ^ "]")
    ~prover:(fun inst ->
      if valid lcl inst.Instance.graph ~labels:inst.Instance.labels then
        Some (Array.map (encode_label lcl) inst.Instance.labels)
      else None)
    (lowering lcl ~check_own:true)

let scheme_of_search lcl ~solve =
  Scheme.of_lowering
    ~name:("lcl-exists[" ^ lcl.name ^ "]")
    ~prover:(fun inst ->
      match solve inst.Instance.graph with
      | Some labels when valid lcl inst.Instance.graph ~labels ->
          Some (Array.map (encode_label lcl) labels)
      | _ -> None)
    (lowering lcl ~check_own:false)

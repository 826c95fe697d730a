let strip_existentials phi =
  let rec quantifier_free : Formula.t -> bool = function
    | True | False | Eq _ | Adj _ | Lab _ -> true
    | Mem _ -> false
    | Not f -> quantifier_free f
    | And (f, g) | Or (f, g) | Imp (f, g) | Iff (f, g) ->
        quantifier_free f && quantifier_free g
    | Exists _ | Forall _ | Exists_set _ | Forall_set _ -> false
  in
  let rec strip acc : Formula.t -> (string list * Formula.t) option = function
    | Exists (x, body) -> strip (x :: acc) body
    | matrix when quantifier_free matrix -> Some (List.rev acc, matrix)
    | _ -> None
  in
  strip [] phi

let eval_matrix ~vars ~ids ~adj phi =
  let index x =
    match List.find_index (String.equal x) vars with
    | Some i -> i
    | None -> invalid_arg ("Existential_fo: unbound variable " ^ x)
  in
  let rec eval : Formula.t -> bool = function
    | True -> true
    | False -> false
    | Eq (x, y) -> ids.(index x) = ids.(index y)
    | Adj (x, y) -> adj (index x) (index y)
    | Lab _ | Mem _ -> invalid_arg "Existential_fo: unsupported atom"
    | Not f -> not (eval f)
    | And (f, g) -> eval f && eval g
    | Or (f, g) -> eval f || eval g
    | Imp (f, g) -> (not (eval f)) || eval g
    | Iff (f, g) -> eval f = eval g
    | Exists _ | Forall _ | Exists_set _ | Forall_set _ ->
        invalid_arg "Existential_fo: not quantifier-free"
  in
  eval phi

(* Shared part: witness ids and the strict upper triangle of their
   adjacency matrix. *)
let encode_shared ~id_bits ids matrix =
  let k = Array.length ids in
  let w = Bitbuf.Writer.create () in
  Array.iter (fun id -> Bitbuf.Writer.fixed w ~width:id_bits id) ids;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Bitbuf.Writer.bit w matrix.(i).(j)
    done
  done;
  Bitbuf.Writer.contents w

let decode_shared ~id_bits ~k b =
  Bitbuf.decode b (fun r ->
      let ids = Array.init k (fun _ -> Bitbuf.Reader.fixed r ~width:id_bits) in
      let matrix = Array.make_matrix k k false in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          let bit = Bitbuf.Reader.bit r in
          matrix.(i).(j) <- bit;
          matrix.(j).(i) <- bit
        done
      done;
      (ids, matrix))

let make phi =
  (* accept any sentence whose prenex normal form is existential
     (Lemma 2.1's phrasing), not only syntactically prenex inputs *)
  let vars, matrix_formula =
    match strip_existentials phi with
    | Some p -> p
    | None -> (
        match
          if Formula.is_fo phi then strip_existentials (Transform.prenex phi)
          else None
        with
        | Some p -> p
        | None ->
            invalid_arg
              "Existential_fo.make: the sentence has no existential prenex form")
  in
  let k = List.length vars in
  let name = "existential-fo[" ^ Formula.to_string phi ^ "]" in
  let prover (inst : Instance.t) =
    if not (Graph.is_connected inst.Instance.graph) then None
    else begin
      let size = Instance.n inst in
      (* brute-force witness search over n^k tuples *)
      let tuple = Array.make k 0 in
      let found = ref None in
      let rec search i =
        if !found <> None then ()
        else if i = k then begin
          let ids = Array.map (fun v -> inst.Instance.ids.(v)) tuple in
          let adj a b = Graph.mem_edge inst.Instance.graph tuple.(a) tuple.(b) in
          if eval_matrix ~vars ~ids ~adj matrix_formula then
            found := Some (Array.copy tuple)
        end
        else
          for v = 0 to size - 1 do
            tuple.(i) <- v;
            search (i + 1)
          done
      in
      search 0;
      match !found with
      | None -> None
      | Some witnesses ->
          let ids = Array.map (fun v -> inst.Instance.ids.(v)) witnesses in
          let madj = Array.make_matrix k k false in
          for i = 0 to k - 1 do
            for j = 0 to k - 1 do
              madj.(i).(j) <-
                i <> j
                && Graph.mem_edge inst.Instance.graph witnesses.(i) witnesses.(j)
            done
          done;
          let shared = encode_shared ~id_bits:inst.Instance.id_bits ids madj in
          let trees =
            Array.map
              (fun root -> Spanning.bfs inst.Instance.graph ~root)
              witnesses
          in
          Some
            (Array.init size (fun v ->
                 let w = Bitbuf.Writer.create () in
                 Bitbuf.Writer.bitstring w shared;
                 Array.iter
                   (fun (sp : Spanning.t) ->
                     Bitbuf.Writer.nat w sp.dist.(v);
                     let parent =
                       if sp.parent.(v) = -1 then v else sp.parent.(v)
                     in
                     Bitbuf.Writer.fixed w ~width:inst.Instance.id_bits
                       inst.Instance.ids.(parent))
                   trees;
                 Bitbuf.Writer.contents w))
    end
  in
  let split ~id_bits c =
    Bitbuf.decode c (fun r ->
        let shared = Bitbuf.Reader.bitstring r in
        let trees =
          List.init k (fun _ ->
              let dist = Bitbuf.Reader.nat r in
              let parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
              (dist, parent_id))
        in
        (shared, trees))
  in
  (* The shared part stays raw in the decoded value: neighbors must
     carry the same one bit for bit, so only the vertex's own copy is
     ever parsed. *)
  let check ~id_bits ~me ~label:_ mine ~ids ~src ~decs ~lo ~hi :
      Scheme.verdict =
    match mine with
    | None -> Reject "malformed certificate"
    | Some (shared_bits, my_trees) -> (
        match decode_shared ~id_bits ~k shared_bits with
        | None -> Reject "malformed shared part"
        | Some (ids_w, madj) -> (
            match Scheme.decoded_neighbors ~ids ~src ~decs ~lo ~hi with
            | None -> Reject "malformed neighbor certificate"
            | Some nbrs ->
                if
                  List.exists
                    (fun (_, (s, _)) -> not (Bitstring.equal s shared_bits))
                    nbrs
                then Reject "shared parts disagree"
                else begin
                  (* the k spanning-tree checks *)
                  let rec check_trees i trees =
                    match trees with
                    | [] -> Ok ()
                    | (dist, parent_id) :: rest -> (
                        let cert =
                          { Spanning_tree.root_id = ids_w.(i); dist; parent_id }
                        in
                        let neighbors =
                          List.map
                            (fun (nid, (_, ts)) ->
                              let ndist, nparent = List.nth ts i in
                              ( nid,
                                {
                                  Spanning_tree.root_id = ids_w.(i);
                                  dist = ndist;
                                  parent_id = nparent;
                                } ))
                            nbrs
                        in
                        match
                          Spanning_tree.check_tree_view ~me cert ~neighbors
                        with
                        | Ok () -> check_trees (i + 1) rest
                        | Error e -> Error (Printf.sprintf "tree %d: %s" i e))
                  in
                  match check_trees 0 my_trees with
                  | Error e -> Reject e
                  | Ok () ->
                      (* witness-side adjacency row check *)
                      let neighbor_ids = List.map fst nbrs in
                      let row_ok = ref true in
                      Array.iteri
                        (fun i idi ->
                          if idi = me then
                            Array.iteri
                              (fun j idj ->
                                if j <> i then begin
                                  let actual =
                                    if idj = me then false
                                    else List.mem idj neighbor_ids
                                  in
                                  if madj.(i).(j) <> actual then row_ok := false
                                end)
                              ids_w)
                        ids_w;
                      if not !row_ok then
                        Reject "matrix misstates a witness adjacency"
                      else if
                        eval_matrix ~vars ~ids:ids_w
                          ~adj:(fun a b -> madj.(a).(b))
                          matrix_formula
                      then Accept
                      else Reject "matrix does not satisfy the sentence"
                end))
  in
  Scheme.of_lowering ~name ~prover { decode = split; check; flat = None }

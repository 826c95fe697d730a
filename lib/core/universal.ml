(* The description is the list of (id, sorted neighbor ids) rows,
   sorted by id — a canonical encoding so that equality of descriptions
   is equality of bitstrings. *)

let describe (inst : Instance.t) =
  List.map
    (fun v -> (Instance.id_of inst v, Instance.neighbor_ids inst v))
    (Graph.vertices inst.graph)
  |> List.sort compare

let encode ~id_bits rows =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.list w
    (fun w (id, nbrs) ->
      Bitbuf.Writer.fixed w ~width:id_bits id;
      Bitbuf.Writer.list w (fun w n -> Bitbuf.Writer.fixed w ~width:id_bits n) nbrs)
    rows;
  Bitbuf.Writer.contents w

let decode ~id_bits b =
  Bitbuf.decode b (fun r ->
      Bitbuf.Reader.list r (fun r ->
          let id = Bitbuf.Reader.fixed r ~width:id_bits in
          let nbrs =
            Bitbuf.Reader.list r (fun r -> Bitbuf.Reader.fixed r ~width:id_bits)
          in
          (id, nbrs)))

(* Rebuild a graph from a description; vertex numbering by row order. *)
let graph_of_rows rows =
  let ids = List.map fst rows in
  let index = Hashtbl.create (List.length rows) in
  List.iteri (fun i id -> Hashtbl.replace index id i) ids;
  if Hashtbl.length index <> List.length rows then None
  else
    let ok = ref true in
    let es = ref [] in
    List.iter
      (fun (id, nbrs) ->
        let u = Hashtbl.find index id in
        List.iter
          (fun nid ->
            match Hashtbl.find_opt index nid with
            | Some v when v <> u -> es := (u, v) :: !es
            | _ -> ok := false)
          nbrs)
      rows;
    (* symmetry: every directed mention must have its converse *)
    let mentioned = Hashtbl.create 64 in
    List.iter (fun (u, v) -> Hashtbl.replace mentioned (u, v) ()) !es;
    if List.exists (fun (u, v) -> not (Hashtbl.mem mentioned (v, u))) !es then
      ok := false;
    if !ok then Some (Graph.of_edges ~n:(List.length rows) !es) else None

(* Certificates stay raw: neighbors must carry the same description
   bit for bit, so only the vertex's own copy is ever parsed. *)
let lowering p : Bitstring.t Scheme.lowering =
  {
    decode = (fun ~id_bits:_ c -> c);
    check =
      (fun ~id_bits ~me ~label:_ mine ~ids ~src ~decs ~lo ~hi ->
        match decode ~id_bits mine with
        | None -> Reject "malformed description"
        | Some rows -> (
            let differs = ref false in
            for i = lo to hi - 1 do
              if not (Bitstring.equal decs.(src.(i)) mine) then differs := true
            done;
            if !differs then Reject "neighbors carry a different description"
            else
              match List.assoc_opt me rows with
              | None -> Reject "description misses my row"
              | Some claimed
                when claimed <> List.init (hi - lo) (fun i -> ids.(lo + i)) ->
                  Reject "description misstates my neighborhood"
              | Some _ -> (
                  match graph_of_rows rows with
                  | None -> Reject "description is not a valid graph"
                  | Some g ->
                      if not (Graph.is_connected g) then
                        Reject "described graph is disconnected"
                      else if p g then Accept
                      else Reject "described graph fails the property")));
    flat = None;
  }

let make ~name p =
  Scheme.of_lowering
    ~name:("universal[" ^ name ^ "]")
    ~prover:(fun inst ->
      if Graph.is_connected inst.graph && p inst.graph then begin
        let c = encode ~id_bits:inst.id_bits (describe inst) in
        Some (Array.make (Instance.n inst) c)
      end
      else None)
    (lowering p)

let of_formula phi = make ~name:(Formula.to_string phi) (fun g -> Eval.sentence g phi)

let cert_size inst =
  Bitstring.length (encode ~id_bits:inst.Instance.id_bits (describe inst))

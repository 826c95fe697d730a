let default_find_model g =
  if Graph.n g <= 20 then Some (Exact.optimal_model g)
  else if Graph.is_tree g then Some (Elimination.centroid_of_tree g)
  else Some (Heuristic.model g)

let certs_for (inst : Instance.t) model =
  let model = Elimination.coherentize model inst.Instance.graph in
  Anclist.build inst model ~ann:(fun _ -> ())

(* Decoded certificates are ancestor-entry arrays; the check stage is
   the array verifier of {!Anclist}, shared by the interpreted and
   compiled paths. *)
let lowering ~t : unit Anclist.entry array option Scheme.lowering =
  {
    decode = (fun ~id_bits c -> Anclist.decode_arr ~id_bits Anclist.unit_codec c);
    check =
      (fun ~id_bits:_ ~me ~label:_ mine ~ids ~src ~decs ~lo ~hi ->
        match
          Anclist.verify_decoded ~t_bound:t Anclist.unit_codec ~me mine ~ids
            ~src ~decs ~lo ~hi ~proj:Fun.id
        with
        | Ok _ -> Scheme.Accept
        | Error e -> Scheme.Reject e);
    flat = None;
  }

let make ?(find_model = default_find_model) ~t () =
  Scheme.of_lowering
    ~name:(Printf.sprintf "treedepth<=%d" t)
    ~prover:(fun inst ->
      if not (Graph.is_connected inst.Instance.graph) then None
      else
        match find_model inst.Instance.graph with
        | Some model when Elimination.height model <= t ->
            let entries = certs_for inst model in
            Some
              (Array.map
                 (Anclist.encode ~id_bits:inst.Instance.id_bits
                    Anclist.unit_codec)
                 entries)
        | _ -> None)
    (lowering ~t)

let make_with_model ~t model =
  Scheme.of_lowering
    ~name:(Printf.sprintf "treedepth<=%d[fixed-model]" t)
    ~prover:(fun inst ->
      if
        Graph.is_connected inst.Instance.graph
        && Elimination.is_model model inst.Instance.graph
        && Elimination.height model <= t
      then
        let entries = certs_for inst model in
        Some
          (Array.map
             (Anclist.encode ~id_bits:inst.Instance.id_bits Anclist.unit_codec)
             entries)
      else None)
    (lowering ~t)

let cert_size ~t inst_model inst =
  ignore t;
  let entries = certs_for inst inst_model in
  Array.fold_left
    (fun acc es ->
      max acc
        (Bitstring.length
           (Anclist.encode ~id_bits:inst.Instance.id_bits Anclist.unit_codec es)))
    0 entries

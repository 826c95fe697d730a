type side = A | Alpha | Beta | B

type gadget = {
  name : string;
  ell : int;
  build : Bitstring.t -> Bitstring.t -> Instance.t;
  side_of : int -> side;
}

let zeros len = Bitstring.of_bools (List.init len (fun _ -> false))

let cut_size gadget sa sb =
  let inst = gadget.build sa sb in
  List.length
    (List.filter
       (fun v -> match gadget.side_of v with Alpha | Beta -> true | A | B -> false)
       (Graph.vertices inst.Instance.graph))

let check_partition gadget sa sb =
  let ( let* ) = Result.bind in
  let inst = gadget.build sa sb in
  let g = inst.Instance.graph in
  let forbidden (u, v) =
    match (gadget.side_of u, gadget.side_of v) with
    | A, B | B, A -> true
    | A, Beta | Beta, A -> true
    | Alpha, B | B, Alpha -> true
    | _ -> false
  in
  let* () =
    if List.exists forbidden (Graph.edges g) then
      Error "edge crosses a forbidden side pair"
    else Ok ()
  in
  (* string-dependent edges must be internal to V_A (for s_A) and V_B *)
  let base = gadget.build (zeros gadget.ell) (zeros gadget.ell) in
  let* () =
    if Graph.n base.Instance.graph <> Graph.n g then
      Error "vertex set depends on the strings"
    else Ok ()
  in
  let diff =
    let ea = Graph.edges g and eb = Graph.edges base.Instance.graph in
    List.filter (fun e -> not (List.mem e eb)) ea
    @ List.filter (fun e -> not (List.mem e ea)) eb
  in
  let* () =
    if
      List.for_all
        (fun (u, v) ->
          match (gadget.side_of u, gadget.side_of v) with
          | A, A | B, B -> true
          | _ -> false)
        diff
    then Ok ()
    else Error "string-dependent edge outside V_A / V_B"
  in
  (* cut identifiers 1..r *)
  let cut =
    List.filter
      (fun v -> match gadget.side_of v with Alpha | Beta -> true | _ -> false)
      (Graph.vertices g)
  in
  let cut_ids = List.sort Int.compare (List.map (fun v -> inst.Instance.ids.(v)) cut) in
  if cut_ids = List.init (List.length cut) (fun i -> i + 1) then Ok ()
  else Error "cut vertices do not carry identifiers 1..r"

let lower_bound_bits gadget =
  let r = cut_size gadget (zeros gadget.ell) (zeros gadget.ell) in
  float_of_int gadget.ell /. float_of_int r

(* Remove the edges internal to [drop] from an instance, keeping ids. *)
let strip_side gadget (inst : Instance.t) drop =
  let keep (u, v) =
    not (gadget.side_of u = drop && gadget.side_of v = drop)
  in
  let g = inst.Instance.graph in
  let stripped =
    Graph.of_edges ~n:(Graph.n g) (List.filter keep (Graph.edges g))
  in
  Instance.make ~ids:inst.Instance.ids stripped

let encode_assignment certs =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.list w Bitbuf.Writer.bitstring (Array.to_list certs);
  Bitbuf.Writer.contents w

let decode_assignment ~n b =
  match Bitbuf.decode b (fun r -> Bitbuf.Reader.list r Bitbuf.Reader.bitstring) with
  | Some l when List.length l = n -> Some (Array.of_list l)
  | _ -> None

let protocol_of_scheme scheme gadget =
  let simulate my_string my_sides drop cert =
    (* Rebuild my half: my own string on my side, zeros on the other —
       then strip the other side's private edges, which I cannot know. *)
    let inst =
      match drop with
      | B -> gadget.build my_string (zeros gadget.ell)
      | _ -> gadget.build (zeros gadget.ell) my_string
    in
    let inst = strip_side gadget inst drop in
    match decode_assignment ~n:(Instance.n inst) cert with
    | None -> false
    | Some certs ->
        List.for_all
          (fun v ->
            if List.mem (gadget.side_of v) my_sides then
              match Scheme.verify scheme (Scheme.view_of inst certs v) with
              | Accept -> true
              | Reject _ -> false
            else true)
          (Graph.vertices inst.Instance.graph)
  in
  let sample = gadget.build (zeros gadget.ell) (zeros gadget.ell) in
  {
    Equality.name = scheme.Scheme.name ^ " via " ^ gadget.name;
    cert_bits =
      (* worst case: n vertices of any size; report the honest size on
         the all-zero instance as the budget *)
      (match Scheme.certificate_size scheme sample with
      | Some b -> b * Instance.n sample
      | None -> 0);
    prove =
      (fun sa sb ->
        let inst = gadget.build sa sb in
        match scheme.Scheme.prover inst with
        | Some certs -> Some (encode_assignment certs)
        | None -> None);
    alice = (fun sa cert -> simulate sa [ A; Alpha ] B cert);
    bob = (fun sb cert -> simulate sb [ B; Beta ] A cert);
  }

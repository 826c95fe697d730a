type t = {
  graph : Graph.t;
  ids : int array;
  id_bits : int;
  labels : int array;
}

let make ?labels ?ids ?id_bits graph =
  let size = Graph.n graph in
  if size = 0 then invalid_arg "Instance.make: empty graph";
  (* Default ids 1..n are valid by construction; a supplied array is
     checked entry by entry. *)
  let ids =
    match ids with
    | None -> Array.init size (fun v -> v + 1)
    | Some a ->
        let ids = Array.copy a in
        if Array.length ids <> size then invalid_arg "Instance.make: ids length";
        let seen = Hashtbl.create size in
        Array.iter
          (fun id ->
            if id < 1 then invalid_arg "Instance.make: ids must be >= 1";
            if Hashtbl.mem seen id then invalid_arg "Instance.make: duplicate id";
            Hashtbl.replace seen id ())
          ids;
        ids
  in
  let labels =
    match labels with
    | Some a ->
        if Array.length a <> size then invalid_arg "Instance.make: labels length";
        Array.copy a
    | None -> Array.make size 0
  in
  let max_id = Array.fold_left max 1 ids in
  let needed = Combin.ceil_log2 (max_id + 1) in
  let id_bits =
    match id_bits with
    | None -> needed
    | Some b when b >= needed -> b
    | Some b ->
        invalid_arg
          (Printf.sprintf "Instance.make: id_bits %d cannot encode id %d" b
             max_id)
  in
  { graph; ids; id_bits; labels }

let with_random_ids ?(range_exp = 2) rng t =
  let size = Graph.n t.graph in
  let bound = max (size + 1) (Combin.pow size range_exp) in
  let seen = Hashtbl.create size in
  let ids =
    Array.init size (fun _ ->
        let rec draw () =
          let id = 1 + Rng.int rng bound in
          if Hashtbl.mem seen id then draw ()
          else begin
            Hashtbl.replace seen id ();
            id
          end
        in
        draw ())
  in
  make ~labels:t.labels ~ids t.graph

let vertex_of_id t id =
  let found = ref None in
  Array.iteri (fun v i -> if i = id then found := Some v) t.ids;
  !found

let id_of t v = t.ids.(v)

let n t = Graph.n t.graph

let neighbor_ids t v =
  Array.to_list (Graph.neighbors t.graph v)
  |> List.map (fun w -> t.ids.(w))
  |> List.sort Int.compare

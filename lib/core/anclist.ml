type tree_entry = { exit_id : int; dist : int; parent_id : int }

type 'a entry = { aid : int; ann : 'a; tree : tree_entry option }

type 'a codec = {
  write : Bitbuf.Writer.t -> 'a -> unit;
  read : Bitbuf.Reader.t -> 'a;
  equal : 'a -> 'a -> bool;
}

let unit_codec =
  { write = (fun _ () -> ()); read = (fun _ -> ()); equal = (fun () () -> true) }

(* ------------------------------------------------------------------ *)
(* Prover                                                               *)
(* ------------------------------------------------------------------ *)

let build (inst : Instance.t) tree ~ann =
  let g = inst.Instance.graph in
  if not (Elimination.is_model tree g) then
    invalid_arg "Anclist.build: not a model";
  if not (Elimination.is_coherent tree g) then
    invalid_arg "Anclist.build: model is not coherent";
  let size = Graph.n g in
  let id v = inst.Instance.ids.(v) in
  let depth = Elimination.depth tree in
  let kids = Elimination.children_all tree in
  (* Subtree vertex lists, sorted ascending (the exit-vertex choice
     below depends on this order), built bottom-up.  A vertex lies in
     at most [depth] subtrees, and each subtree costs one sort plus one
     [Graph.induced] and one BFS over its own rows, so the whole prover
     is O((n + m) · depth · log n) — never a pass over all of [g] per
     vertex. *)
  let subs = Array.make size [] in
  let by_depth = Array.init size Fun.id in
  Array.sort (fun a b -> Int.compare depth.(b) depth.(a)) by_depth;
  Array.iter
    (fun v ->
      subs.(v) <-
        List.sort Int.compare
          (v :: List.concat_map (fun c -> subs.(c)) kids.(v)))
    by_depth;
  (* For each vertex u and each proper-depth slot j: u's record in the
     spanning tree of G_v for its ancestor v at depth j+1.  Filled per
     ancestor v in one sweep over its subtree, so no per-(u, v) lookup
     structure is needed. *)
  let tree_parts =
    Array.init size (fun u -> Array.make depth.(u) None)
  in
  for v = 0 to size - 1 do
    let p = tree.Elimination.parent.(v) in
    if p <> -1 then begin
      let sub = subs.(v) in
      let sub_graph, back = Graph.induced g sub in
      (* the exit vertex: lowest-numbered subtree vertex adjacent to
         the parent (same choice as [Elimination.exit_vertex]) *)
      let exit =
        match List.find_opt (fun x -> Graph.mem_edge g x p) sub with
        | Some x -> x
        | None -> raise Not_found
      in
      let exit_i = ref (-1) in
      Array.iteri (fun i x -> if x = exit then exit_i := i) back;
      let sp = Spanning.bfs sub_graph ~root:!exit_i in
      let slot = depth.(v) - 1 in
      let exit_id = id exit in
      Array.iteri
        (fun i u ->
          let parent_vertex =
            if sp.Spanning.parent.(i) = -1 then u
            else back.(sp.Spanning.parent.(i))
          in
          tree_parts.(u).(slot) <-
            Some
              {
                exit_id;
                dist = sp.Spanning.dist.(i);
                parent_id = id parent_vertex;
              })
        back
    end
  done;
  Array.init size (fun u ->
      List.map
        (fun v ->
          let tree_part =
            if tree.Elimination.parent.(v) = -1 then None
            else tree_parts.(u).(depth.(v) - 1)
          in
          { aid = id v; ann = ann v; tree = tree_part })
        (Elimination.ancestors tree u))

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)
(* ------------------------------------------------------------------ *)

let encode ~id_bits codec entries =
  let w = Bitbuf.Writer.create () in
  let d = List.length entries in
  Bitbuf.Writer.nat w d;
  List.iteri
    (fun i e ->
      Bitbuf.Writer.fixed w ~width:id_bits e.aid;
      codec.write w e.ann;
      (* positional: every entry except the last (the root) has a
         spanning-tree record *)
      match (e.tree, i = d - 1) with
      | Some te, false ->
          Bitbuf.Writer.fixed w ~width:id_bits te.exit_id;
          Bitbuf.Writer.nat w te.dist;
          Bitbuf.Writer.fixed w ~width:id_bits te.parent_id
      | None, true -> ()
      | _ -> invalid_arg "Anclist.encode: tree records misplaced")
    entries;
  Bitbuf.Writer.contents w

let decode ~id_bits codec b =
  Bitbuf.decode b (fun r ->
      let d = Bitbuf.Reader.nat r in
      if d = 0 || d > 4096 then raise (Bitbuf.Decode_error "bad depth");
      List.init d (fun i ->
          let aid = Bitbuf.Reader.fixed r ~width:id_bits in
          let ann = codec.read r in
          let tree =
            if i = d - 1 then None
            else begin
              let exit_id = Bitbuf.Reader.fixed r ~width:id_bits in
              let dist = Bitbuf.Reader.nat r in
              let parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
              Some { exit_id; dist; parent_id }
            end
          in
          { aid; ann; tree }))

let decode_arr ~id_bits codec b =
  match decode ~id_bits codec b with
  | None -> None
  | Some es -> Some (Array.of_list es)

(* ------------------------------------------------------------------ *)
(* Verifier                                                             *)
(* ------------------------------------------------------------------ *)

type 'a analysis_arr = {
  aentries : 'a entry array;
  achildren : (int * 'a) list;
}

(* The verifier over pre-decoded entry arrays.  Every suffix
   comparison in Section 5 — compatibility, subtree membership, the
   exit-touch test, child-subtree claims — is a function of one number
   per neighbor: the length of the longest common suffix (csl) between
   my list and the neighbor's, comparing (id, annotation) pairs.  We
   compute it once per neighbor and the whole check becomes integer
   comparisons:

   - suffix-compatible        <=>  csl = min d dn
   - member of G_{v_j}        <=>  dn >= j  and  csl >= j
   - whole list = (j-1)-suffix <=> dn = j-1 and  csl >= j-1
   - claims a child subtree   <=>  dn > d   and  csl >= d

   (all with j <= d, so csl >= k both implies and is implied by the
   corresponding [pairs_equal] on length-k suffixes), with no
   quadratic List.nth/suffix walks, and nothing is allocated per
   neighbor beyond the two precomputed arrays. *)
let verify_decoded ~t_bound codec ~me mine ~ids ~src ~decs ~lo ~hi ~proj =
  let ( let* ) = Result.bind in
  let* entries =
    match mine with Some e -> Ok e | None -> Error "malformed certificate"
  in
  let d = Array.length entries in
  (* step 1: depth bound, own id first *)
  let* () = if d <= t_bound then Ok () else Error "depth exceeds bound" in
  let* () =
    if d > 0 && entries.(0).aid = me then Ok ()
    else Error "list does not start with my id"
  in
  let n = hi - lo in
  let nid i = ids.(lo + i) in
  let ne = Array.make n [||] in
  let* () =
    let rec go i =
      if i >= n then Ok ()
      else
        match proj decs.(src.(lo + i)) with
        | None -> Error "malformed neighbor certificate"
        | Some es ->
            ne.(i) <- es;
            go (i + 1)
    in
    go 0
  in
  (* neighbors' own ids must head their lists (their own verifier also
     checks it, but we refuse to reason from ill-formed lists) *)
  let* () =
    let rec go i =
      if i >= n then Ok ()
      else
        let es = ne.(i) in
        if Array.length es > 0 && es.(0).aid = nid i then go (i + 1)
        else Error "neighbor list does not start with its id"
    in
    go 0
  in
  let csl = Array.make n 0 in
  for i = 0 to n - 1 do
    let es = ne.(i) in
    let dn = Array.length es in
    let m = if d < dn then d else dn in
    let k = ref 0 in
    let matching = ref true in
    while !matching && !k < m do
      let a = entries.(d - 1 - !k) and b = es.(dn - 1 - !k) in
      if a.aid = b.aid && codec.equal a.ann b.ann then incr k
      else matching := false
    done;
    csl.(i) <- !k
  done;
  (* step 2: suffix compatibility with every neighbor *)
  let* () =
    let rec go i =
      if i >= n then Ok ()
      else
        let dn = Array.length ne.(i) in
        if csl.(i) = (if d < dn then d else dn) then go (i + 1)
        else Error "neighbor list is not suffix-compatible"
    in
    go 0
  in
  (* steps 3-4: per-depth spanning-tree checks; my ancestor at depth j
     is entry (d - j), counting my own entry as depth d. *)
  let* () =
    let member i j = Array.length ne.(i) >= j && csl.(i) >= j in
    let member_record i j =
      let es = ne.(i) in
      es.(Array.length es - j).tree
    in
    let rec per_depth j =
      if j < 2 then Ok ()
      else
        let e = entries.(d - j) in
        match e.tree with
        | None -> Error "missing spanning-tree record"
        | Some te ->
            (* members of G_{v_j} among my neighbors: those whose lists
               share my j-suffix *)
            let* () =
              let rec exits_ok i =
                if i >= n then Ok ()
                else if not (member i j) then exits_ok (i + 1)
                else
                  match member_record i j with
                  | Some r when r.exit_id = te.exit_id -> exits_ok (i + 1)
                  | _ -> Error "exit-vertex ids disagree within a subtree"
              in
              exits_ok 0
            in
            let* () =
              if te.dist = 0 then
                if te.exit_id <> me then
                  Error "claims distance 0 but is not the exit vertex"
                else if te.parent_id <> me then
                  Error "exit vertex must be its own tree parent"
                else begin
                  (* the exit vertex must touch the parent of v_j: a
                     neighbor whose whole list is my (j-1)-suffix *)
                  let rec touches i =
                    i < n
                    && ((Array.length ne.(i) = j - 1 && csl.(i) >= j - 1)
                       || touches (i + 1))
                  in
                  if touches 0 then Ok ()
                  else Error "exit vertex does not touch the parent"
                end
              else
                let rec find i =
                  if i >= n then -1
                  else if member i j && nid i = te.parent_id then i
                  else find (i + 1)
                in
                match find 0 with
                | -1 -> Error "tree parent is not a neighbor in the subtree"
                | i -> (
                    match member_record i j with
                    | Some r when r.dist = te.dist - 1 -> Ok ()
                    | Some _ -> Error "tree parent distance mismatch"
                    | None -> Error "tree parent lacks a record")
            in
            per_depth (j - 1)
    in
    per_depth d
  in
  (* children info: neighbors strictly deeper than me whose list has my
     full list as a proper suffix claim, at their depth-(d+1)-from-end
     entry, the (id, annotation) of my child whose subtree they live
     in. *)
  let* children =
    let tbl = Hashtbl.create 8 in
    let conflict = ref false in
    for i = 0 to n - 1 do
      let es = ne.(i) in
      let dn = Array.length es in
      if dn > d && csl.(i) >= d then begin
        let child_entry = es.(dn - (d + 1)) in
        match Hashtbl.find_opt tbl child_entry.aid with
        | None -> Hashtbl.replace tbl child_entry.aid child_entry.ann
        | Some existing ->
            if not (codec.equal existing child_entry.ann) then conflict := true
      end
    done;
    if !conflict then Error "conflicting claims about a child subtree"
    else
      Ok
        (Hashtbl.fold (fun aid ann acc -> (aid, ann) :: acc) tbl []
        |> List.sort compare)
  in
  Ok { aentries = entries; achildren = children }

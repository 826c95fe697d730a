type cert = { root_id : int; dist : int; parent_id : int }

(* One writer function per codec: [encode] and the born-packed
   [encode_trees] both go through it, so a packed certificate and a
   single one are the same bits by construction. *)
let write_tree w ~id_bits ~root_id ~dist ~parent_id =
  Bitbuf.Writer.fixed w ~width:id_bits root_id;
  Bitbuf.Writer.nat w dist;
  Bitbuf.Writer.fixed w ~width:id_bits parent_id

let encode ~id_bits c =
  let w = Bitbuf.Writer.create () in
  write_tree w ~id_bits ~root_id:c.root_id ~dist:c.dist ~parent_id:c.parent_id;
  Bitbuf.Writer.contents w

let decode ~id_bits b =
  Bitbuf.decode b (fun r ->
      let root_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let dist = Bitbuf.Reader.nat r in
      let parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
      { root_id; dist; parent_id })

(* The one BFS behind every spanning-family prover: [None] on the
   empty graph or when [root] does not reach every vertex. *)
let spanning_bfs (inst : Instance.t) root =
  let g = inst.graph in
  if Graph.n g = 0 then None
  else
    let t = Graph.bfs_tree g root in
    if Array.length t.Graph.order < Graph.n g then None else Some t

(* Certificates of a BFS spanning tree ([order.(0)] is its root, the
   one vertex without a parent), born packed (Bitbuf.pack): read
   straight from the BFS arrays, with no per-vertex record or writer.
   [suffix w v] appends vertex [v]'s fields past the tree's. *)
let pack_tree (inst : Instance.t) (t : Graph.bfs_tree) suffix =
  let id_bits = inst.id_bits and ids = inst.ids in
  let root_id = ids.(t.order.(0)) in
  Bitbuf.pack (Array.length t.parent) (fun w v ->
      let p = t.parent.(v) in
      write_tree w ~id_bits ~root_id ~dist:t.dist.(v)
        ~parent_id:ids.(if p < 0 then v else p);
      suffix w v)

let encode_trees inst t = pack_tree inst t (fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Verifiers.  Decoding is total (malformed = None).  Each scheme has
   one check, over a struct-of-arrays plane (Scheme.flat): a decoded
   [cert option] flattens to [valid; root_id; dist; parent_id].  The
   compiled engine runs it on whole-graph planes; Scheme.flat_lowering
   derives the boxed [check] every other path runs by writing the
   vertex and its neighbors into a scratch plane, so all paths agree
   on every verdict, reason strings included, by construction.

   Each check is single-pass: at 10⁶+ vertices a neighbor's slot may
   be a cache miss, so the row is walked once, gathering every
   sub-check's flag, and the verdict is decided afterwards in a fixed
   priority order.  Each sub-check is a forall/exists over the whole
   row, so gathering commutes with the cascade. *)

let tree_width = 4

let tree_write d plane base =
  match d with
  | None -> plane.(base) <- 0
  | Some c ->
      plane.(base) <- 1;
      plane.(base + 1) <- c.root_id;
      plane.(base + 2) <- c.dist;
      plane.(base + 3) <- c.parent_id

let tree_check_flat ~id_bits:_ ~me ~label:_ ~mine ~mbase ~ids ~plane ~lo
    ~hi : Scheme.verdict =
  if Array.unsafe_get mine mbase = 0 then Reject "malformed certificate"
  else begin
    let m_root = Array.unsafe_get mine (mbase + 1) in
    let m_dist = Array.unsafe_get mine (mbase + 2) in
    let m_parent = Array.unsafe_get mine (mbase + 3) in
    let malformed = ref false in
    let roots_ok = ref true in
    let parent_dist = ref min_int in
    let i = ref lo in
    while (not !malformed) && !i < hi do
      let b = !i * tree_width in
      if Array.unsafe_get plane b = 0 then malformed := true
      else begin
        if Array.unsafe_get plane (b + 1) <> m_root then roots_ok := false;
        if Array.unsafe_get ids !i = m_parent then
          parent_dist := Array.unsafe_get plane (b + 2)
      end;
      incr i
    done;
    if !malformed then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if m_dist = 0 then
      if m_root <> me then Reject "distance 0 but not the claimed root"
      else if m_parent <> me then Reject "root must be its own parent"
      else Accept
    else if m_root = me then Reject "claimed root has nonzero distance"
    else if !parent_dist = min_int then Reject "parent is not a neighbor"
    else if !parent_dist = m_dist - 1 then Accept
    else Reject "parent distance is not mine minus one"
  end

let tree_lowering : cert option Scheme.lowering =
  Scheme.flat_lowering ~decode
    { width = tree_width; write = tree_write; check_flat = tree_check_flat }

(* The spanning-tree check at one vertex over well-formed certificates,
   through the same derived check the scheme runs. *)
let check_tree_view ~me c ~neighbors =
  let ids = Array.of_list (List.map fst neighbors) in
  let decs = Array.of_list (List.map (fun (_, nc) -> Some nc) neighbors) in
  match
    tree_lowering.check ~id_bits:0 ~me ~label:0 (Some c) ~ids
      ~src:(Scheme.identity_src (Array.length ids)) ~decs ~lo:0
      ~hi:(Array.length ids)
  with
  | Accept -> Ok ()
  | Reject r -> Error r

let scheme ?(root = 0) () =
  Scheme.of_lowering ~name:"spanning-tree"
    ~prover:(fun inst -> Option.map (encode_trees inst) (spanning_bfs inst root))
    tree_lowering

(* Acyclicity adds one sub-check to the tree cascade: every edge must
   be a tree edge, i.e. each neighbor is my parent (dist - 1, and I
   claim it) or my child (dist + 1, and it claims me). *)
let acyclicity_check_flat ~id_bits:_ ~me ~label:_ ~mine ~mbase ~ids ~plane
    ~lo ~hi : Scheme.verdict =
  if Array.unsafe_get mine mbase = 0 then Reject "malformed certificate"
  else begin
    let m_root = Array.unsafe_get mine (mbase + 1) in
    let m_dist = Array.unsafe_get mine (mbase + 2) in
    let m_parent = Array.unsafe_get mine (mbase + 3) in
    let malformed = ref false in
    let roots_ok = ref true in
    let parent_dist = ref min_int in
    let all_tree = ref true in
    let i = ref lo in
    while (not !malformed) && !i < hi do
      let b = !i * tree_width in
      if Array.unsafe_get plane b = 0 then malformed := true
      else begin
        let nd = Array.unsafe_get plane (b + 2) in
        let nid = Array.unsafe_get ids !i in
        if Array.unsafe_get plane (b + 1) <> m_root then roots_ok := false;
        if nid = m_parent then parent_dist := nd;
        let is_parent = nd = m_dist - 1 && m_parent = nid in
        let is_child = nd = m_dist + 1 && Array.unsafe_get plane (b + 3) = me in
        if not (is_parent || is_child) then all_tree := false
      end;
      incr i
    done;
    if !malformed then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if m_dist = 0 then
      if m_root <> me then Reject "distance 0 but not the claimed root"
      else if m_parent <> me then Reject "root must be its own parent"
      else if !all_tree then Accept
      else Reject "non-tree edge detected"
    else if m_root = me then Reject "claimed root has nonzero distance"
    else if !parent_dist = min_int then Reject "parent is not a neighbor"
    else if !parent_dist <> m_dist - 1 then
      Reject "parent distance is not mine minus one"
    else if !all_tree then Accept
    else Reject "non-tree edge detected"
  end

let acyclicity =
  Scheme.of_lowering ~name:"acyclicity"
    ~prover:(fun inst ->
      let g = inst.Instance.graph in
      if Graph.m g <> Graph.n g - 1 then None
      else Option.map (encode_trees inst) (spanning_bfs inst 0))
    (Scheme.flat_lowering ~decode
       { width = tree_width; write = tree_write;
         check_flat = acyclicity_check_flat })

(* Vertex count: spanning-tree certificate extended with the subtree
   size and the claimed global total.  The record is flat, with no
   nested tree certificate, and so is its plane:
   [valid; root_id; dist; parent_id; size; total]. *)
type count_cert = {
  c_root_id : int;
  c_dist : int;
  c_parent_id : int;
  size : int;
  total : int;
}

let encode_count ~id_bits c =
  let w = Bitbuf.Writer.create () in
  write_tree w ~id_bits ~root_id:c.c_root_id ~dist:c.c_dist
    ~parent_id:c.c_parent_id;
  Bitbuf.Writer.nat w c.size;
  Bitbuf.Writer.nat w c.total;
  Bitbuf.Writer.contents w

let decode_count ~id_bits b =
  Bitbuf.decode b (fun r ->
      let c_root_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let c_dist = Bitbuf.Reader.nat r in
      let c_parent_id = Bitbuf.Reader.fixed r ~width:id_bits in
      let size = Bitbuf.Reader.nat r in
      let total = Bitbuf.Reader.nat r in
      { c_root_id; c_dist; c_parent_id; size; total })

(* [encode_count]'s bits for every vertex, born packed. *)
let encode_counts (inst : Instance.t) (t : Graph.bfs_tree) =
  let n = Instance.n inst in
  let sizes =
    Spanning.subtree_sizes
      { root = t.order.(0); parent = t.parent; dist = t.dist }
  in
  pack_tree inst t (fun w v ->
      Bitbuf.Writer.nat w sizes.(v);
      Bitbuf.Writer.nat w n)

let count_width = 6

let count_write d plane base =
  match d with
  | None -> plane.(base) <- 0
  | Some c ->
      plane.(base) <- 1;
      plane.(base + 1) <- c.c_root_id;
      plane.(base + 2) <- c.c_dist;
      plane.(base + 3) <- c.c_parent_id;
      plane.(base + 4) <- c.size;
      plane.(base + 5) <- c.total

let count_check_flat ~total_pred ~local ~root_check ~me ~mine ~mbase ~ids
    ~plane ~lo ~hi : Scheme.verdict =
  if Array.unsafe_get mine mbase = 0 then Reject "malformed certificate"
  else begin
    let m_root = Array.unsafe_get mine (mbase + 1) in
    let m_dist = Array.unsafe_get mine (mbase + 2) in
    let m_parent = Array.unsafe_get mine (mbase + 3) in
    let m_size = Array.unsafe_get mine (mbase + 4) in
    let m_total = Array.unsafe_get mine (mbase + 5) in
    let n = hi - lo in
    let malformed = ref false in
    let roots_ok = ref true and totals_ok = ref true in
    let parent_dist = ref min_int in
    let children_sum = ref 0 in
    let i = ref lo in
    while (not !malformed) && !i < hi do
      let b = !i * count_width in
      if Array.unsafe_get plane b = 0 then malformed := true
      else begin
        let nd = Array.unsafe_get plane (b + 2) in
        if Array.unsafe_get plane (b + 1) <> m_root then roots_ok := false;
        if Array.unsafe_get plane (b + 5) <> m_total then totals_ok := false;
        if Array.unsafe_get ids !i = m_parent then parent_dist := nd;
        if Array.unsafe_get plane (b + 3) = me && nd = m_dist + 1 then
          children_sum := !children_sum + Array.unsafe_get plane (b + 4)
      end;
      incr i
    done;
    if !malformed then Reject "malformed neighbor certificate"
    else if not !roots_ok then Reject "root ids disagree"
    else if m_dist = 0 && m_root <> me then
      Reject "distance 0 but not the claimed root"
    else if m_dist = 0 && m_parent <> me then
      Reject "root must be its own parent"
    else if m_dist > 0 && m_root = me then
      Reject "claimed root has nonzero distance"
    else if m_dist > 0 && !parent_dist = min_int then
      Reject "parent is not a neighbor"
    else if m_dist > 0 && !parent_dist <> m_dist - 1 then
      Reject "parent distance is not mine minus one"
    else if not !totals_ok then Reject "totals disagree"
    else if m_size <> !children_sum + 1 then
      Reject "subtree size does not match children"
    else if m_dist = 0 && m_size <> m_total then
      Reject "root size differs from claimed total"
    else if m_dist = 0 && not (total_pred m_total) then
      Reject "total fails the predicate"
    else if not (local ~total:m_total ~me ~degree:n) then
      Reject "local degree check failed"
    else if m_dist = 0 && not (root_check ~total:m_total ~degree:n) then
      Reject "root check failed"
    else Accept
  end

let count_lowering ~total_pred ~local ~root_check :
    count_cert option Scheme.lowering =
  Scheme.flat_lowering ~decode:decode_count
    {
      width = count_width;
      write = count_write;
      check_flat =
        (fun ~id_bits:_ ~me ~label:_ ~mine ~mbase ~ids ~plane ~lo ~hi ->
          count_check_flat ~total_pred ~local ~root_check ~me ~mine ~mbase
            ~ids ~plane ~lo ~hi);
    }

let always_local ~total:_ ~me:_ ~degree:_ = true
let always_root ~total:_ ~degree:_ = true

let vertex_count ?(root = 0) ~expected pred_name =
  Scheme.of_lowering
    ~name:(Printf.sprintf "vertex-count[%s]" pred_name)
    ~prover:(fun inst ->
      if expected (Instance.n inst) then
        Option.map (encode_counts inst) (spanning_bfs inst root)
      else None)
    (count_lowering ~total_pred:expected ~local:always_local
       ~root_check:always_root)

let counted ?(choose_root = fun _ -> Some 0) ~name ~total_pred ~local
    ~root_check () =
  Scheme.of_lowering ~name
    ~prover:(fun inst ->
      let g = inst.Instance.graph in
      match Option.bind (choose_root g) (spanning_bfs inst) with
      | None -> None
      | Some t ->
          let n = Instance.n inst in
          let ok =
            total_pred n
            && Graph.fold_vertices
                 (fun v acc ->
                   acc
                   && local ~total:n ~me:inst.Instance.ids.(v)
                        ~degree:(Graph.degree g v))
                 g true
            && root_check ~total:n ~degree:(Graph.degree g t.order.(0))
          in
          if ok then Some (encode_counts inst t) else None)
    (count_lowering ~total_pred ~local ~root_check)

let count_cert_size inst =
  match spanning_bfs inst 0 with
  | None -> invalid_arg "Spanning_tree.count_cert_size: disconnected graph"
  | Some t -> Scheme.max_cert_bits (encode_counts inst t)

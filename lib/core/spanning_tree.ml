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
(* Verifiers.  Each scheme has one decoded form and one check, over a
   struct-of-arrays plane (Scheme.flat): a certificate decodes straight
   into its row [valid; root_id; dist; parent_id] (then [size; total]
   for a count certificate), valid = 0 exactly where Bitbuf.decode
   refuses the bits.  The compiled engine reads every certificate into
   whole-graph planes; Scheme.flat_lowering derives the boxed [decode]
   and [check] every other path runs by reading into a row and copying
   rows into a scratch plane, so all paths agree on every verdict,
   reason strings included, by construction.

   Each check is single-pass: at 10⁶+ vertices a neighbor's slot may
   be a cache miss, so the row is walked once, gathering every
   sub-check's flag, and the verdict is decided afterwards in a fixed
   priority order.  Each sub-check is a forall/exists over the whole
   row, so gathering commutes with the cascade. *)

let tree_width = 4
let count_width = 6

(* One reader per certificate and no record: the fields go into the
   row as they are read, and a refused read leaves valid = 0 (the
   fields then hold whatever was read before the refusal, which no
   check looks at). *)
let read_row ~counts ~id_bits c row base =
  let r = Bitbuf.Reader.of_bitstring c in
  let valid =
    match
      row.(base + 1) <- Bitbuf.Reader.fixed r ~width:id_bits;
      row.(base + 2) <- Bitbuf.Reader.nat r;
      row.(base + 3) <- Bitbuf.Reader.fixed r ~width:id_bits;
      if counts then begin
        row.(base + 4) <- Bitbuf.Reader.nat r;
        row.(base + 5) <- Bitbuf.Reader.nat r
      end;
      Bitbuf.Reader.expect_end r
    with
    | () -> 1
    | exception Bitbuf.Decode_error _ -> 0
  in
  row.(base) <- valid

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

let tree_flat : Scheme.flat =
  {
    width = tree_width;
    read = read_row ~counts:false;
    check_flat = tree_check_flat;
  }

(* The spanning-tree check at one vertex over well-formed certificates:
   the scheme's own plane check on rows built from the records,
   neighbors at slots [0, deg) and the vertex at slot [deg]. *)
let check_tree_view ~me c ~neighbors =
  let deg = List.length neighbors in
  let plane = Array.make ((deg + 1) * tree_width) 0 in
  let put i c =
    let b = i * tree_width in
    plane.(b) <- 1;
    plane.(b + 1) <- c.root_id;
    plane.(b + 2) <- c.dist;
    plane.(b + 3) <- c.parent_id
  in
  List.iteri (fun i (_, nc) -> put i nc) neighbors;
  put deg c;
  match
    tree_check_flat ~id_bits:0 ~me ~label:0 ~mine:plane
      ~mbase:(deg * tree_width)
      ~ids:(Array.of_list (List.map fst neighbors))
      ~plane ~lo:0 ~hi:deg
  with
  | Accept -> Ok ()
  | Reject r -> Error r

let scheme ?(root = 0) () =
  Scheme.of_lowering ~name:"spanning-tree"
    ~prover:(fun inst -> Option.map (encode_trees inst) (spanning_bfs inst root))
    (Scheme.flat_lowering tree_flat)

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
    (Scheme.flat_lowering
       { tree_flat with check_flat = acyclicity_check_flat })

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

let count_lowering ~total_pred ~local ~root_check =
  Scheme.flat_lowering
    {
      width = count_width;
      read = read_row ~counts:true;
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

type t = { parent : int array }

let n t = Array.length t.parent

let make ~parent =
  let size = Array.length parent in
  (* Detect cycles by walking up with a step budget. *)
  Array.iteri
    (fun v _ ->
      let rec walk u steps =
        if steps > size then invalid_arg "Elimination.make: parent cycle"
        else if parent.(u) >= 0 then walk parent.(u) (steps + 1)
        else if parent.(u) < -1 || parent.(u) >= size then
          invalid_arg "Elimination.make: parent out of range"
      in
      walk v 0)
    parent;
  { parent }

let roots t =
  List.filter (fun v -> t.parent.(v) = -1) (List.init (n t) Fun.id)

let root t =
  match roots t with
  | [ r ] -> r
  | _ -> invalid_arg "Elimination.root: not a tree"

let depth t =
  let d = Array.make (n t) 0 in
  let rec dep v =
    if d.(v) > 0 then d.(v)
    else begin
      let value = if t.parent.(v) = -1 then 1 else 1 + dep t.parent.(v) in
      d.(v) <- value;
      value
    end
  in
  Array.iteri (fun v _ -> ignore (dep v)) t.parent;
  d

let height t = Array.fold_left max 0 (depth t)

let ancestors t v =
  let rec go u acc = if u = -1 then List.rev acc else go t.parent.(u) (u :: acc) in
  go v []

let children t v =
  let acc = ref [] in
  for w = n t - 1 downto 0 do
    if t.parent.(w) = v then acc := w :: !acc
  done;
  !acc

(* All children lists in one pass — callers that would otherwise call
   [children] in a loop (and pay O(n) per call) use this instead. *)
let children_all t =
  let kids = Array.make (n t) [] in
  for v = n t - 1 downto 0 do
    let p = t.parent.(v) in
    if p >= 0 then kids.(p) <- v :: kids.(p)
  done;
  kids

let subtree t v =
  (* classify every vertex by walking up with memoization: O(n) total
     instead of an O(depth) walk per vertex *)
  let size = n t in
  let state = Array.make size 0 (* 0 unknown, 1 inside, 2 outside *) in
  state.(v) <- 1;
  let rec classify u =
    if state.(u) <> 0 then state.(u)
    else begin
      let s = if t.parent.(u) = -1 then 2 else classify t.parent.(u) in
      state.(u) <- s;
      s
    end
  in
  let acc = ref [] in
  for u = size - 1 downto 0 do
    if classify u = 1 then acc := u :: !acc
  done;
  !acc

let is_ancestor t ~anc ~desc =
  let rec go u = u = anc || (u <> -1 && go t.parent.(u)) in
  go desc

let is_model t g =
  Graph.n g = n t
  &&
  try
    Graph.iter_edges g (fun u v ->
        if not (is_ancestor t ~anc:u ~desc:v || is_ancestor t ~anc:v ~desc:u)
        then raise Exit);
    true
  with Exit -> false

(* Coherence, restated per non-root vertex [w]: some vertex of the
   subtree of [w] is adjacent to [parent w].  [cover t g] counts, for
   every [w], the edges between its subtree and [parent w].  Every such
   edge (x, y) has [y] a proper ancestor of [x]; walking up from [x] to
   [y] identifies the child of [y] it covers — one O(depth) walk per
   edge endpoint instead of a subtree scan per (v, child) pair. *)
let cover t g =
  let size = n t in
  let count = Array.make size 0 in
  let mark x y =
    let rec go c p =
      if p <> -1 then
        if p = y then count.(c) <- count.(c) + 1 else go p t.parent.(p)
    in
    go x t.parent.(x)
  in
  Graph.iter_edges g (fun u v ->
      if u < size && v < size then begin
        mark u v;
        mark v u
      end);
  count

let is_coherent t g =
  let count = cover t g in
  let ok = ref true in
  Array.iteri (fun w p -> if p <> -1 && count.(w) = 0 then ok := false) t.parent;
  !ok

(* Lemma B.1's repair loop.  Each step takes the least uncovered pair
   (parent w, w) and hangs the subtree of [w] under the lowest proper
   ancestor [u] of [parent w] adjacent to it.  No vertex strictly
   between [parent w] and [u] is adjacent to that subtree, so the move
   changes only two cover counts: [w] gains the subtree's edges to [u],
   and the child [c] of [u] on the old path loses them.  A set of the
   uncovered pairs, keyed [parent * n + w], then yields the next
   violation without a rescan, in the order a full rescan after every
   repair would find them. *)
let coherentize t g =
  if not (is_model t g) then
    invalid_arg "Elimination.coherentize: not a model of the graph";
  let size = n t in
  let count = cover t g in
  let module S = Set.Make (Int) in
  let open_ = ref S.empty in
  Array.iteri
    (fun w p ->
      if p <> -1 && count.(w) = 0 then open_ := S.add ((p * size) + w) !open_)
    t.parent;
  if S.is_empty !open_ then t
  else begin
    let parent = Array.copy t.parent in
    let kids = children_all t in
    let adj = Array.make size 0 in
    while not (S.is_empty !open_) do
      let key = S.min_elt !open_ in
      open_ := S.remove key !open_;
      let v = key / size and w = key mod size in
      let rec collect acc = function
        | [] -> acc
        | x :: rest -> collect (x :: acc) (List.rev_append kids.(x) rest)
      in
      let sub = collect [] [ w ] in
      let touch d =
        List.iter
          (fun x -> Graph.iter_neighbors g x (fun y -> adj.(y) <- adj.(y) + d))
          sub
      in
      touch 1;
      (* Lowest proper ancestor [u] of [v] adjacent to the subtree of
         [w], with its child [c] on the path; exists because [g] is
         connected and all edges out of the subtree go to ancestors of
         [w]. *)
      let rec lowest c u =
        if u = -1 then invalid_arg "Elimination.coherentize: disconnected"
        else if adj.(u) > 0 then (c, u)
        else lowest u parent.(u)
      in
      let c, u = lowest v parent.(v) in
      let e = adj.(u) in
      touch (-1);
      parent.(w) <- u;
      kids.(v) <- List.filter (fun x -> x <> w) kids.(v);
      kids.(u) <- w :: kids.(u);
      count.(w) <- e;
      count.(c) <- count.(c) - e;
      if count.(c) = 0 then open_ := S.add ((u * size) + c) !open_
    done;
    make ~parent
  end

let exit_vertex t g v =
  let p = t.parent.(v) in
  if p = -1 then invalid_arg "Elimination.exit_vertex: root";
  match List.find_opt (fun x -> Graph.mem_edge g x p) (subtree t v) with
  | Some x -> x
  | None -> raise Not_found

let of_path count =
  if count < 1 then invalid_arg "Elimination.of_path";
  let parent = Array.make count (-1) in
  let rec build lo hi up =
    if lo <= hi then begin
      let mid = (lo + hi) / 2 in
      parent.(mid) <- up;
      build lo (mid - 1) mid;
      build (mid + 1) hi mid
    end
  in
  build 0 (count - 1) (-1);
  make ~parent

let of_cycle count =
  if count < 3 then invalid_arg "Elimination.of_cycle";
  let path_model = of_path (count - 1) in
  let parent = Array.make count (-1) in
  Array.blit path_model.parent 0 parent 0 (count - 1);
  (* The path's root hangs under the removed vertex [count-1]. *)
  Array.iteri (fun v p -> if p = -1 && v < count - 1 then parent.(v) <- count - 1) parent;
  make ~parent

let of_complete_binary_tree ~h =
  if h < 0 then invalid_arg "Elimination.of_complete_binary_tree";
  let size = (1 lsl (h + 1)) - 1 in
  let parent = Array.init size (fun v -> if v = 0 then -1 else (v - 1) / 2) in
  make ~parent

let of_caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Elimination.of_caterpillar";
  let total = spine * (legs + 1) in
  let spine_model = of_path spine in
  let parent = Array.make total (-1) in
  Array.blit spine_model.parent 0 parent 0 spine;
  (* leg j of spine vertex i is vertex spine + i*legs + j, hanging
     under i (matching Gen.caterpillar's layout) *)
  for i = 0 to spine - 1 do
    for j = 0 to legs - 1 do
      parent.(spine + (i * legs) + j) <- i
    done
  done;
  make ~parent

let centroid_of_tree g =
  if not (Graph.is_tree g) then
    invalid_arg "Elimination.centroid_of_tree: not a tree";
  let total = Graph.n g in
  let parent = Array.make total (-1) in
  let alive = Array.make total true in
  (* Buffers shared by every centroid: [in_comp] marks the current
     component and [comp.(0 .. size-1)] lists it in DFS visiting order.
     Both are cleared over the component alone before the next one, so
     each level of the decomposition costs O(n) and the whole is
     O(n log n). *)
  let in_comp = Array.make total false in
  let comp = Array.make total 0 in
  let sub = Array.make total 0 in
  (* Mark the alive component containing [v]; returns its size. *)
  let component v =
    let size = ref 0 in
    let rec dfs u =
      in_comp.(u) <- true;
      comp.(!size) <- u;
      incr size;
      Graph.iter_neighbors g u (fun w ->
          if alive.(w) && not in_comp.(w) then dfs w)
    in
    dfs v;
    !size
  in
  let centroid size =
    let best = ref (-1) and best_score = ref max_int in
    (* subtree sizes by rooted DFS from the last vertex visited *)
    let rec calc u p =
      sub.(u) <- 1;
      Graph.iter_neighbors g u (fun w ->
          if in_comp.(w) && w <> p then begin
            calc w u;
            sub.(u) <- sub.(u) + sub.(w)
          end)
    in
    let start = comp.(size - 1) in
    calc start (-1);
    let rec walk u p =
      let score = ref (size - sub.(u)) in
      Graph.iter_neighbors g u (fun w ->
          if in_comp.(w) && w <> p then score := max !score sub.(w));
      if !score < !best_score then begin
        best_score := !score;
        best := u
      end;
      Graph.iter_neighbors g u (fun w ->
          if in_comp.(w) && w <> p then walk w u)
    in
    walk start (-1);
    !best
  in
  let rec decompose v up =
    let size = component v in
    let c = centroid size in
    for i = 0 to size - 1 do
      in_comp.(comp.(i)) <- false
    done;
    parent.(c) <- up;
    alive.(c) <- false;
    Graph.iter_neighbors g c (fun w -> if alive.(w) then decompose w c)
  in
  if total > 0 then decompose 0 (-1);
  make ~parent

let to_dot t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "digraph Elimination {\n";
  Array.iteri
    (fun v p ->
      if p = -1 then
        Buffer.add_string buf (Printf.sprintf "  %d [shape=doublecircle];\n" v)
      else Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" p v))
    t.parent;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>elimination:";
  Array.iteri
    (fun v p ->
      if p = -1 then Format.fprintf ppf "@ %d↑·" v
      else Format.fprintf ppf "@ %d↑%d" v p)
    t.parent;
  Format.fprintf ppf "@]"

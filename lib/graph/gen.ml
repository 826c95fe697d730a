module Rng = Localcert_util.Rng

(* Generators emit edges straight into Graph.of_iter's two counting
   passes: no generator below holds a per-edge tuple list, so a
   path:1000000 costs the CSR arrays and nothing else. *)

let path n =
  Graph.of_iter ~n (fun f ->
      for i = 0 to n - 2 do
        f i (i + 1)
      done)

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Graph.of_iter ~n (fun f ->
      f (n - 1) 0;
      for i = 0 to n - 2 do
        f i (i + 1)
      done)

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  Graph.of_iter ~n (fun f ->
      for i = 1 to n - 1 do
        f 0 i
      done)

let clique n =
  Graph.of_iter ~n (fun f ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          f u v
        done
      done)

let complete_binary_tree h =
  if h < 0 then invalid_arg "Gen.complete_binary_tree: negative height";
  let n = (1 lsl (h + 1)) - 1 in
  Graph.of_iter ~n (fun f ->
      for v = 1 to n - 1 do
        f v ((v - 1) / 2)
      done)

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Gen.caterpillar";
  let n = spine * (legs + 1) in
  Graph.of_iter ~n (fun f ->
      for i = 0 to spine - 2 do
        f i (i + 1)
      done;
      for i = 0 to spine - 1 do
        for j = 0 to legs - 1 do
          f i (spine + (i * legs) + j)
        done
      done)

let spider ~legs ~leg_len =
  if legs < 0 || leg_len < 1 then invalid_arg "Gen.spider";
  let n = 1 + (legs * leg_len) in
  Graph.of_iter ~n (fun f ->
      for l = 0 to legs - 1 do
        let base = 1 + (l * leg_len) in
        f 0 base;
        for j = 0 to leg_len - 2 do
          f (base + j) (base + j + 1)
        done
      done)

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let idx r c = (r * cols) + c in
  Graph.of_iter ~n:(rows * cols) (fun f ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then f (idx r c) (idx r (c + 1));
          if r + 1 < rows then f (idx r c) (idx (r + 1) c)
        done
      done)

(* Decode a Prüfer sequence of length n-2 into a labelled tree, O(n):
   a forward scan pointer finds the smallest untouched leaf, and a
   vertex whose degree drops to 1 *behind* the pointer is served on
   the very next step (there is at most one such pending leaf, and it
   is the minimum).  Same tree as the textbook smallest-leaf decode,
   without the log-factor of a leaf set. *)
let random_tree rng n =
  if n < 1 then invalid_arg "Gen.random_tree: need n >= 1";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges ~n [ (0, 1) ]
  else begin
    let seq = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let eu = Array.make (n - 1) 0 and ev = Array.make (n - 1) 0 in
    let ptr = ref 0 in
    let pending = ref (-1) in
    let next_leaf () =
      if !pending >= 0 then begin
        let l = !pending in
        pending := -1;
        l
      end
      else begin
        while deg.(!ptr) <> 1 do
          incr ptr
        done;
        !ptr
      end
    in
    Array.iteri
      (fun i v ->
        let l = next_leaf () in
        eu.(i) <- l;
        ev.(i) <- v;
        deg.(l) <- 0;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 && v < !ptr then pending := v)
      seq;
    let a = ref (-1) and b = ref (-1) in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then if !a < 0 then a := v else b := v
    done;
    eu.(n - 2) <- !a;
    ev.(n - 2) <- !b;
    Graph.of_iter ~n (fun f ->
        for i = 0 to n - 2 do
          f eu.(i) ev.(i)
        done)
  end

let random_tree_bounded_depth rng ~n ~depth =
  if n < 1 || depth < 0 then invalid_arg "Gen.random_tree_bounded_depth";
  let parent = Array.make n (-1) in
  let vdepth = Array.make n 0 in
  let candidates = ref [ 0 ] in
  for v = 1 to n - 1 do
    (match !candidates with
    | [] -> invalid_arg "Gen.random_tree_bounded_depth: depth 0, n > 1"
    | cs ->
        let p = Rng.pick rng cs in
        parent.(v) <- p;
        vdepth.(v) <- vdepth.(p) + 1);
    if vdepth.(v) < depth then candidates := v :: !candidates
  done;
  Graph.of_iter ~n (fun f ->
      for v = 1 to n - 1 do
        if parent.(v) >= 0 then f v parent.(v)
      done)

let random_connected rng ~n ~extra_edges =
  let t = random_tree rng n in
  let capacity = (n * (n - 1) / 2) - (n - 1) in
  let take = min extra_edges (max 0 capacity) in
  if take = 0 then t
  else if 3 * take >= capacity then begin
    (* dense request: enumerate the non-edges and shuffle *)
    let non_edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Graph.mem_edge t u v) then non_edges := (u, v) :: !non_edges
      done
    done;
    let pool = Array.of_list !non_edges in
    Rng.shuffle rng pool;
    let extra = Array.to_list (Array.sub pool 0 take) in
    Graph.of_edges ~n (extra @ Graph.edges t)
  end
  else begin
    (* sparse request (the common case): rejection-sample the extra
       edges — each draw misses with probability < 2/3, so this is
       expected O(take) work instead of the O(n^2) non-edge
       enumeration, which at n = 65536 would materialize two billion
       pairs *)
    let chosen = Hashtbl.create (4 * take) in
    let extra = ref [] in
    let count = ref 0 in
    while !count < take do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then begin
        let e = (min u v, max u v) in
        if (not (Hashtbl.mem chosen e)) && not (Graph.mem_edge t u v) then begin
          Hashtbl.add chosen e ();
          extra := e :: !extra;
          incr count
        end
      end
    done;
    Graph.of_edges ~n (!extra @ Graph.edges t)
  end

let random_bounded_treedepth rng ~n ~depth ~p =
  if depth < 1 then invalid_arg "Gen.random_bounded_treedepth: depth >= 1";
  let tree = random_tree_bounded_depth rng ~n ~depth:(depth - 1) in
  (* The tree is rooted at 0 by construction; BFS recovers parents. *)
  let parent = (Graph.bfs_tree tree 0).Graph.parent in
  let rec ancestors v =
    if v = 0 then [] else parent.(v) :: ancestors parent.(v)
  in
  let es = ref [] in
  for v = 1 to n - 1 do
    es := (v, parent.(v)) :: !es;
    List.iter
      (fun a ->
        if a <> parent.(v) && Rng.chance rng p then es := (v, a) :: !es)
      (ancestors v)
  done;
  Graph.of_edges ~n !es

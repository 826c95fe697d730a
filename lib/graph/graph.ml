(* Compressed sparse row.  [row_ptr] has length [size + 1]; the
   neighbors of [v] are [col.(row_ptr.(v)) .. col.(row_ptr.(v+1) - 1)],
   sorted strictly ascending (no duplicates, no loops).  Two flat int
   arrays is the whole graph: a neighbor sweep over all vertices is one
   linear pass over [col], and the representation is canonical, so
   structural equality of the arrays decides graph equality. *)

type t = { size : int; row_ptr : int array; col : int array }

type bfs_tree = { dist : int array; parent : int array; order : int array }

let check_vertex ~n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: vertex %d out of [0,%d)" v n)

(* Rows up to this length are insertion-sorted in place by [of_iter]. *)
let short_row = 16

(* Two-pass counting build: pass 1 sizes the rows, pass 2 scatters the
   endpoints, then each row is sorted and deduplicated in place.  The
   iterator must describe the same edge multiset on both passes; a
   shrinking or growing second pass is detected and rejected rather
   than silently producing a corrupt graph.  Nothing here holds a
   per-edge tuple, so ingesting 10^6-edge streams costs two int arrays
   and whatever the caller's iterator itself needs. *)
let of_iter ~n iter =
  if n < 0 then invalid_arg "Graph.of_iter: negative size";
  let row_ptr = Array.make (n + 1) 0 in
  iter (fun u v ->
      check_vertex ~n u;
      check_vertex ~n v;
      if u = v then invalid_arg "Graph.of_iter: loop";
      row_ptr.(u + 1) <- row_ptr.(u + 1) + 1;
      row_ptr.(v + 1) <- row_ptr.(v + 1) + 1);
  for v = 1 to n do
    row_ptr.(v) <- row_ptr.(v) + row_ptr.(v - 1)
  done;
  let total = row_ptr.(n) in
  let col = Array.make total 0 in
  let next = Array.copy row_ptr in
  iter (fun u v ->
      if next.(u) >= row_ptr.(u + 1) || next.(v) >= row_ptr.(v + 1) then
        invalid_arg "Graph.of_iter: iterator changed between passes";
      col.(next.(u)) <- v;
      next.(u) <- next.(u) + 1;
      col.(next.(v)) <- u;
      next.(v) <- next.(v) + 1);
  for v = 0 to n - 1 do
    if next.(v) <> row_ptr.(v + 1) then
      invalid_arg "Graph.of_iter: iterator changed between passes"
  done;
  (* Sort rows that need it (generators mostly emit ascending already),
     then compact duplicates with a single forward write cursor: the
     write position never overtakes the read position, so this is
     in place.  Short rows — nearly all of them in sparse graphs — are
     insertion-sorted where they lie; only rows longer than
     [short_row] pay for a copy and a comparison closure. *)
  let w = ref 0 in
  let rp = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let lo = row_ptr.(v) and hi = row_ptr.(v + 1) in
    let sorted = ref true in
    for i = lo + 1 to hi - 1 do
      if col.(i - 1) > col.(i) then sorted := false
    done;
    if not !sorted then begin
      if hi - lo <= short_row then
        for i = lo + 1 to hi - 1 do
          let x = col.(i) in
          let j = ref (i - 1) in
          while !j >= lo && col.(!j) > x do
            col.(!j + 1) <- col.(!j);
            decr j
          done;
          col.(!j + 1) <- x
        done
      else begin
        let tmp = Array.sub col lo (hi - lo) in
        Array.sort Int.compare tmp;
        Array.blit tmp 0 col lo (hi - lo)
      end
    end;
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let x = col.(i) in
      if x <> !prev then begin
        col.(!w) <- x;
        incr w;
        prev := x
      end
    done;
    rp.(v + 1) <- !w
  done;
  let col = if !w = total then col else Array.sub col 0 !w in
  { size = n; row_ptr = rp; col }

let of_edges ~n edges =
  of_iter ~n (fun f -> List.iter (fun (u, v) -> f u v) edges)

let empty n =
  if n < 0 then invalid_arg "Graph.of_iter: negative size";
  { size = n; row_ptr = Array.make (n + 1) 0; col = [||] }

let n g = g.size
let m g = g.row_ptr.(g.size) / 2

let degree g v =
  check_vertex ~n:g.size v;
  g.row_ptr.(v + 1) - g.row_ptr.(v)

let neighbors g v =
  check_vertex ~n:g.size v;
  Array.sub g.col g.row_ptr.(v) (g.row_ptr.(v + 1) - g.row_ptr.(v))

let iter_neighbors g v f =
  check_vertex ~n:g.size v;
  for i = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
    f (Array.unsafe_get g.col i)
  done

let fold_neighbors g v f init =
  check_vertex ~n:g.size v;
  let acc = ref init in
  for i = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get g.col i)
  done;
  !acc

let unsafe_csr g = (g.row_ptr, g.col)

let mem_edge g u v =
  check_vertex ~n:g.size u;
  check_vertex ~n:g.size v;
  let col = g.col in
  let rec bin lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let x = col.(mid) in
      if x = v then true else if x < v then bin (mid + 1) hi else bin lo mid
  in
  bin g.row_ptr.(u) g.row_ptr.(u + 1)

let iter_edges g f =
  for u = 0 to g.size - 1 do
    for i = g.row_ptr.(u) to g.row_ptr.(u + 1) - 1 do
      let v = g.col.(i) in
      if u < v then f u v
    done
  done

(* Rows are ascending and sorted, so prepending while walking backwards
   yields the (u, v), u < v list already in lexicographic order. *)
let edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    for i = g.row_ptr.(u + 1) - 1 downto g.row_ptr.(u) do
      let v = g.col.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let vertices g = List.init g.size Fun.id

let fold_vertices f g init =
  let acc = ref init in
  for v = 0 to g.size - 1 do
    acc := f v !acc
  done;
  !acc

let add_edge g u v =
  check_vertex ~n:g.size u;
  check_vertex ~n:g.size v;
  if u = v then invalid_arg "Graph.add_edge: loop";
  if mem_edge g u v then g
  else
    of_iter ~n:g.size (fun f ->
        iter_edges g f;
        f u v)

let remove_vertex g v =
  check_vertex ~n:g.size v;
  let rename u = if u < v then u else u - 1 in
  of_iter ~n:(g.size - 1) (fun f ->
      iter_edges g (fun a b ->
          if a <> v && b <> v then f (rename a) (rename b)))

(* Only the rows of [vs] are read.  [back] is ascending and so is every
   row, so a row's surviving neighbours map to ascending positions:
   each is a binary search in [back] that starts past the previous
   hit, and the rows come out sorted and duplicate-free with no
   [of_iter] pass.  Nothing is sized by [g]. *)
let induced g vs =
  let vs = List.sort_uniq Int.compare vs in
  List.iter (check_vertex ~n:g.size) vs;
  let back = Array.of_list vs in
  let k = Array.length back in
  let bound = Array.fold_left (fun acc v -> acc + degree g v) 0 back in
  let rp = Array.make (k + 1) 0 and col = Array.make bound 0 in
  let w = ref 0 in
  for i = 0 to k - 1 do
    let v = back.(i) in
    let lo = ref 0 in
    for e = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      let x = Array.unsafe_get g.col e in
      (* first position in [!lo, k) holding a vertex >= x *)
      let a = ref !lo and b = ref k in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        if back.(mid) < x then a := mid + 1 else b := mid
      done;
      if !a < k && back.(!a) = x then begin
        col.(!w) <- !a;
        incr w;
        lo := !a + 1
      end
      else lo := !a
    done;
    rp.(i + 1) <- !w
  done;
  let col = if !w = bound then col else Array.sub col 0 !w in
  ({ size = k; row_ptr = rp; col }, back)

let disjoint_union g h =
  let size = g.size + h.size in
  let gm = g.row_ptr.(g.size) in
  let row_ptr = Array.make (size + 1) 0 in
  Array.blit g.row_ptr 0 row_ptr 0 (g.size + 1);
  for v = 1 to h.size do
    row_ptr.(g.size + v) <- gm + h.row_ptr.(v)
  done;
  let col = Array.make (gm + h.row_ptr.(h.size)) 0 in
  Array.blit g.col 0 col 0 gm;
  for i = 0 to Array.length h.col - 1 do
    col.(gm + i) <- h.col.(i) + g.size
  done;
  { size; row_ptr; col }

let relabel g perm =
  if Array.length perm <> g.size then
    invalid_arg "Graph.relabel: wrong permutation length";
  let seen = Array.make g.size false in
  Array.iter
    (fun v ->
      check_vertex ~n:g.size v;
      if seen.(v) then invalid_arg "Graph.relabel: not a permutation";
      seen.(v) <- true)
    perm;
  of_iter ~n:g.size (fun f -> iter_edges g (fun u v -> f perm.(u) perm.(v)))

(* The representation is canonical (rows sorted, no duplicates), so
   equality is array equality — no edge lists materialized. *)
let equal g h =
  g.size = h.size && g.row_ptr = h.row_ptr && g.col = h.col

(* BFS over a flat int-array queue: no Queue cells, no per-visit
   allocation, and the queue prefix doubles as the discovery order. *)
let bfs_tree g s =
  check_vertex ~n:g.size s;
  let dist = Array.make g.size (-1) in
  let parent = Array.make g.size (-1) in
  let queue = Array.make g.size 0 in
  let rp = g.row_ptr and col = g.col in
  dist.(s) <- 0;
  queue.(0) <- s;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = rp.(u) to rp.(u + 1) - 1 do
      let v = Array.unsafe_get col i in
      if dist.(v) = -1 then begin
        dist.(v) <- du;
        parent.(v) <- u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let order = if !tail = g.size then queue else Array.sub queue 0 !tail in
  { dist; parent; order }

let bfs_dist g s = (bfs_tree g s).dist

let is_connected g =
  if g.size = 0 then false
  else Array.length (bfs_tree g 0).order = g.size

let components g =
  let seen = Array.make g.size false in
  let comps = ref [] in
  for s = 0 to g.size - 1 do
    if not seen.(s) then begin
      let dist = bfs_dist g s in
      let comp = ref [] in
      for v = g.size - 1 downto 0 do
        if dist.(v) >= 0 && not seen.(v) then begin
          seen.(v) <- true;
          comp := v :: !comp
        end
      done;
      comps := !comp :: !comps
    end
  done;
  List.rev !comps

let diameter g =
  if g.size = 0 then invalid_arg "Graph.diameter: empty graph";
  let best = ref 0 in
  for s = 0 to g.size - 1 do
    Array.iter
      (fun d ->
        if d < 0 then invalid_arg "Graph.diameter: disconnected graph";
        if d > !best then best := d)
      (bfs_dist g s)
  done;
  !best

let is_tree g = is_connected g && m g = g.size - 1

let is_acyclic g = m g = g.size - List.length (components g)

(* Edit overlay for dynamic-topology simulations (DESIGN §5.9).  The
   base CSR stays immutable and shared; the overlay holds two small
   per-vertex sorted adjacency diffs.  Invariants: [added] is disjoint
   from the base adjacency, [removed] is a subset of it, and both
   tables are symmetric, so a merge of a base row with its diff lists
   is duplicate-free and ascending by construction.  [edits] counts
   the undirected edges on which the overlay currently differs from
   the base: re-adding a removed edge shrinks it back, and a delta
   that has drifted home ([edits = 0]) commits to the base for free. *)
module Delta = struct
  type graph = t

  let base_mem_edge = mem_edge

  type t = {
    base : graph;
    added : (int, int list) Hashtbl.t;
    removed : (int, int list) Hashtbl.t;
    mutable edits : int;
  }

  let create base =
    { base; added = Hashtbl.create 16; removed = Hashtbl.create 16; edits = 0 }

  let base d = d.base
  let n d = d.base.size
  let edit_count d = d.edits
  let slot tbl v = Option.value (Hashtbl.find_opt tbl v) ~default:[]

  let mem_edge d u v =
    check_vertex ~n:d.base.size u;
    check_vertex ~n:d.base.size v;
    List.mem v (slot d.added u)
    || (base_mem_edge d.base u v && not (List.mem v (slot d.removed u)))

  let insert tbl u v =
    Hashtbl.replace tbl u (List.sort Int.compare (v :: slot tbl u))

  let delete tbl u v =
    match List.filter (fun x -> x <> v) (slot tbl u) with
    | [] -> Hashtbl.remove tbl u
    | l -> Hashtbl.replace tbl u l

  let add_edge d u v =
    check_vertex ~n:d.base.size u;
    check_vertex ~n:d.base.size v;
    if u = v then invalid_arg "Graph.Delta.add_edge: loop";
    if mem_edge d u v then false
    else begin
      if base_mem_edge d.base u v then begin
        delete d.removed u v;
        delete d.removed v u;
        d.edits <- d.edits - 1
      end
      else begin
        insert d.added u v;
        insert d.added v u;
        d.edits <- d.edits + 1
      end;
      true
    end

  let remove_edge d u v =
    check_vertex ~n:d.base.size u;
    check_vertex ~n:d.base.size v;
    if u = v then invalid_arg "Graph.Delta.remove_edge: loop";
    if not (mem_edge d u v) then false
    else begin
      if base_mem_edge d.base u v then begin
        insert d.removed u v;
        insert d.removed v u;
        d.edits <- d.edits + 1
      end
      else begin
        delete d.added u v;
        delete d.added v u;
        d.edits <- d.edits - 1
      end;
      true
    end

  let degree d v =
    degree d.base v
    - List.length (slot d.removed v)
    + List.length (slot d.added v)

  let iter_neighbors d v f =
    if d.edits = 0 then iter_neighbors d.base v f
    else begin
      let removed = slot d.removed v in
      let pending = ref (slot d.added v) in
      let emit_added_below w =
        let rec go () =
          match !pending with
          | a :: rest when a < w ->
              f a;
              pending := rest;
              go ()
          | _ -> ()
        in
        go ()
      in
      iter_neighbors d.base v (fun w ->
          emit_added_below w;
          if not (List.mem w removed) then f w);
      List.iter f !pending
    end

  let commit d =
    if d.edits = 0 then d.base
    else begin
      (* Both passes of [of_iter] see the tables unmutated, so the
         iterator is repeatable; the CSR build re-sorts rows, so the
         Hashtbl iteration order never shows in the result.  [removed]
         is symmetric, so a base edge u < v is removed iff v is in
         u's list, and only a row marked in [touched] has a list to
         look up: the other base edges cost no hashing. *)
      let touched = Bytes.make d.base.size '\000' in
      Hashtbl.iter (fun u _ -> Bytes.set touched u '\001') d.removed;
      of_iter ~n:d.base.size (fun f ->
          iter_edges d.base (fun u v ->
              if
                Bytes.get touched u = '\000'
                || not (List.mem v (slot d.removed u))
              then f u v);
          Hashtbl.iter
            (fun u l -> List.iter (fun v -> if u < v then f u v) l)
            d.added)
    end
end

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>n=%d;@ edges=" g.size;
  List.iter (fun (u, v) -> Format.fprintf ppf "(%d,%d)@ " u v) (edges g);
  Format.fprintf ppf "@]"

(* Exact treedepth by memoized recursion with branch-and-bound.

   The recurrence explores td(G[mask]) = 1 + min over roots v of the
   max over components of G[mask − v].  Three prunings keep the search
   from touching most of the 2^n masks:

   - an incumbent from a greedy max-degree descent (an achievable
     elimination of the mask, so its depth is a valid upper bound);
   - the logarithmic depth lower bound ⌈log₂(L+1)⌉, where L is the
     number of vertices on a longest path: any elimination tree embeds
     every path through its root levels, so paths force depth.  Note
     ⌈log₂(|mask|+1)⌉ alone is NOT sound for general graphs (a star on
     m vertices has treedepth 2), so L is estimated from below by a
     double-BFS diameter pass — a shortest path is still a path.
     Reaching the bound ends the root loop, and components whose bound
     already meets the incumbent abort their candidate early;
   - per-candidate early aborts: once 1 + (partial worst) cannot beat
     the incumbent, the remaining components are skipped.

   The memo only ever stores exact (treedepth, best root) pairs —
   pruning skips candidates, never falsifies a stored value — so
   [optimal_model]'s reconstruction walk is unchanged.

   popcount / lowest-set-bit / ⌈log₂⌉ all come from precomputed tables
   instead of per-call loops; masks are at most 62 bits wide. *)

(* 16-bit popcount and lowest-set-bit-index tables, built on first use
   (not at module initialisation, which every CLI start would pay).
   [Once.make], not [lazy]: two domains solving exact treedepth for the
   first time at once would make [Lazy.force] raise [Lazy.Undefined]. *)
let pop16 =
  Once.make (fun () ->
      Array.init 65536 (fun i ->
          let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
          go i 0))

let lsb16 =
  Once.make (fun () ->
      Array.init 65536 (fun i ->
          if i = 0 then -1
          else
            let rec go m k = if m land 1 = 1 then k else go (m lsr 1) (k + 1) in
            go i 0))

let popcount mask =
  let t = pop16 () in
  t.(mask land 0xffff)
  + t.((mask lsr 16) land 0xffff)
  + t.((mask lsr 32) land 0xffff)
  + t.((mask lsr 48) land 0xffff)

(* Index of the lowest set bit; mask must be nonzero. *)
let ntz mask =
  let t = lsb16 () in
  if mask land 0xffff <> 0 then t.(mask land 0xffff)
  else if (mask lsr 16) land 0xffff <> 0 then 16 + t.((mask lsr 16) land 0xffff)
  else if (mask lsr 32) land 0xffff <> 0 then 32 + t.((mask lsr 32) land 0xffff)
  else 48 + t.((mask lsr 48) land 0xffff)

(* ceil_log2_tbl.(m) = ⌈log₂(m+1)⌉ — the treedepth of an m-vertex
   path, hence a lower bound once m is a longest-path estimate.  64
   entries, so it is built eagerly. *)
let ceil_log2_tbl =
  Array.init 64 (fun m ->
      let rec go k = if 1 lsl k >= m + 1 then k else go (k + 1) in
      go 0)

let path_lb m = ceil_log2_tbl.(m)

let bits_of mask =
  let rec go m acc = if m = 0 then List.rev acc else go (m land (m - 1)) (ntz m :: acc) in
  go mask []

(* Solver state shared by [treedepth] and [optimal_model]. *)
type solver = {
  nbr : int array;  (** neighborhood masks *)
  memo : (int, int * int) Hashtbl.t;  (** mask -> (treedepth, best root) *)
}

let make_solver g =
  let size = Graph.n g in
  if size = 0 then invalid_arg "Exact: empty graph";
  if size > 62 then invalid_arg "Exact: more than 62 vertices";
  let nbr =
    Array.init size (fun v ->
        Array.fold_left (fun acc w -> acc lor (1 lsl w)) 0 (Graph.neighbors g v))
  in
  { nbr; memo = Hashtbl.create 4096 }

(* Connected components of the induced subgraph on [mask], as masks. *)
let components_of s mask =
  let comp_from seed =
    (* BFS by mask saturation *)
    let rec grow frontier seen =
      if frontier = 0 then seen
      else begin
        let vi = ntz frontier in
        let new_bits = s.nbr.(vi) land mask land lnot seen in
        grow ((frontier lxor (frontier land -frontier)) lor new_bits)
          (seen lor new_bits)
      end
    in
    grow seed seed
  in
  let rec go rest acc =
    if rest = 0 then acc
    else
      let seed = rest land -rest in
      let comp = comp_from seed in
      go (rest land lnot comp) (comp :: acc)
  in
  go mask []

(* Eccentricity of [v] within the connected subgraph on [mask], by
   frontier-mask BFS. *)
let ecc_of s mask v =
  let expand frontier =
    let rec go rest acc =
      if rest = 0 then acc
      else go (rest land (rest - 1)) (acc lor s.nbr.(ntz rest))
    in
    go frontier 0
  in
  let rec go frontier seen d =
    let nxt = expand frontier land mask land lnot seen in
    if nxt = 0 then (d, ntz frontier) else go nxt (seen lor nxt) (d + 1)
  in
  go (1 lsl v) (1 lsl v) 0

(* Lower bound on the treedepth of the connected subgraph on [mask]:
   double BFS under-estimates the diameter, a shortest path with d+1
   vertices is a path, and td ≥ td(P_{d+1}) = ⌈log₂(d+2)⌉. *)
let lower_bound s mask =
  if mask land (mask - 1) = 0 then 1
  else begin
    let _, far = ecc_of s mask (ntz mask) in
    let d, _ = ecc_of s mask far in
    path_lb (d + 1)
  end

(* Greedy incumbent: always eliminate the highest-degree vertex of the
   current component.  Returns an achievable depth and the chosen root,
   so branch-and-bound starts with a tight, realizable upper bound. *)
let rec greedy s mask =
  let m = popcount mask in
  if m = 1 then (1, ntz mask)
  else begin
    let best_v = ref (-1) and best_d = ref (-1) in
    let rec scan rest =
      if rest <> 0 then begin
        let v = ntz rest in
        let d = popcount (s.nbr.(v) land mask) in
        if d > !best_d then begin
          best_d := d;
          best_v := v
        end;
        scan (rest land (rest - 1))
      end
    in
    scan mask;
    let v = !best_v in
    let rest = mask land lnot (1 lsl v) in
    let worst =
      List.fold_left
        (fun acc c -> max acc (fst (greedy s c)))
        0 (components_of s rest)
    in
    (1 + worst, v)
  end

(* Treedepth of the connected induced subgraph on [mask]. *)
let rec solve s mask =
  match Hashtbl.find_opt s.memo mask with
  | Some (td, _) -> td
  | None ->
      let m = popcount mask in
      let result =
        if m = 1 then (1, ntz mask)
        else begin
          let lb = lower_bound s mask in
          let inc, inc_v = greedy s mask in
          let best = ref inc and best_v = ref inc_v in
          if !best > lb then begin
            (* high-degree roots first: they tend to split the mask
               most evenly, so the incumbent tightens early *)
            let cands =
              bits_of mask
              |> List.map (fun v -> (v, popcount (s.nbr.(v) land mask)))
              |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
            in
            (try
               List.iter
                 (fun (v, _) ->
                   if !best = lb then raise Exit;
                   let rest = mask land lnot (1 lsl v) in
                   let comps =
                     (* largest first: the binding constraint surfaces
                        before any exact sub-solve is paid for *)
                     components_of s rest
                     |> List.map (fun c -> (c, popcount c))
                     |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
                   in
                   let worst = ref 0 in
                   let feasible =
                     List.for_all
                       (fun (c, _) ->
                         if 1 + max !worst (lower_bound s c) >= !best then
                           false
                         else begin
                           worst := max !worst (solve s c);
                           1 + !worst < !best
                         end)
                       comps
                   in
                   if feasible then begin
                     best := 1 + !worst;
                     best_v := v
                   end)
                 cands
             with Exit -> ())
          end;
          (!best, !best_v)
        end
      in
      Hashtbl.replace s.memo mask result;
      fst result

let treedepth g =
  let s = make_solver g in
  let full_components =
    Graph.components g
    |> List.map (fun vs -> List.fold_left (fun m v -> m lor (1 lsl v)) 0 vs)
  in
  List.fold_left (fun acc c -> max acc (solve s c)) 0 full_components

let optimal_model g =
  let s = make_solver g in
  let parent = Array.make (Graph.n g) (-1) in
  let rec build mask up =
    ignore (solve s mask);
    let _, v = Hashtbl.find s.memo mask in
    parent.(v) <- up;
    let rest = mask land lnot (1 lsl v) in
    List.iter (fun c -> build c v) (components_of s rest)
  in
  List.iter
    (fun vs ->
      let mask = List.fold_left (fun m v -> m lor (1 lsl v)) 0 vs in
      build mask (-1))
    (Graph.components g);
  Elimination.make ~parent

let treedepth_at_most g t = treedepth g <= t

let path_treedepth count =
  if count < 1 then invalid_arg "Exact.path_treedepth";
  Localcert_util.Combin.ceil_log2 (count + 1)

let cycle_treedepth count =
  if count < 3 then invalid_arg "Exact.cycle_treedepth";
  1 + path_treedepth (count - 1)

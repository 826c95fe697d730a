type t = {
  uid : int;
  vlabel : int;
  anc : bool list;
  kids : (t * int) list;  (** sorted by child uid *)
}

let id t = t.uid

let label t = t.vlabel

let anc_vector t = t.anc

let children t = t.kids

let equal a b = a.uid = b.uid

let compare a b = Int.compare a.uid b.uid

(* Global hash-cons registry keyed by the structural content (ancestor
   vector + children uids with counts).  The prover, certificate decode
   and the kernel verifier's check all intern types, the last from
   every domain of a parallel sweep, so the registry is a sharded
   [Memo]: [find_or_add] allocates the uid under the key's shard lock,
   which gives equal keys one uid and distinct keys distinct uids. *)
let registry : (int * bool list * (int * int) list, t) Localcert_util.Memo.t =
  Localcert_util.Memo.create 64

let counter = Atomic.make 0

let make ~label ~anc ~children =
  let kids = List.sort (fun (a, _) (b, _) -> Int.compare a.uid b.uid) children in
  List.iter
    (fun (_, c) -> if c <= 0 then invalid_arg "Vtype.make: nonpositive count")
    kids;
  let key = (label, anc, List.map (fun (t, c) -> (t.uid, c)) kids) in
  Localcert_util.Memo.find_or_add registry key (fun () ->
      { uid = Atomic.fetch_and_add counter 1; vlabel = label; anc; kids })

let rec size t =
  1 + List.fold_left (fun acc (c, m) -> acc + (m * size c)) 0 t.kids

let rec height t =
  1 + List.fold_left (fun acc (c, _) -> max acc (height c)) 0 t.kids

let compute ?labels g tree =
  let n = Graph.n g in
  let label_of v = match labels with None -> 0 | Some a -> a.(v) in
  if n <> Elimination.n tree then invalid_arg "Vtype.compute: size mismatch";
  let depth = Elimination.depth tree in
  let types = Array.make n None in
  let anc_vector_of v =
    (* ancestors of v from root down to parent, excluding v itself *)
    let ancs = List.tl (Elimination.ancestors tree v) in
    List.rev_map (fun a -> Graph.mem_edge g v a) ancs
  in
  (* bottom-up by decreasing depth *)
  let kids = Elimination.children_all tree in
  let order = List.init n Fun.id in
  let order = List.sort (fun a b -> Int.compare depth.(b) depth.(a)) order in
  List.iter
    (fun v ->
      let kid_types =
        List.map
          (fun w ->
            match types.(w) with
            | Some t -> t
            | None -> assert false)
          kids.(v)
      in
      let grouped =
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun t ->
            Hashtbl.replace tbl t.uid
              (match Hashtbl.find_opt tbl t.uid with
              | Some (t, c) -> (t, c + 1)
              | None -> (t, 1)))
          kid_types;
        Hashtbl.fold (fun _ tc acc -> tc :: acc) tbl []
      in
      types.(v) <-
        Some (make ~label:(label_of v) ~anc:(anc_vector_of v) ~children:grouped))
    order;
  Array.map (function Some t -> t | None -> assert false) types

let rec pp ppf t =
  Format.fprintf ppf "⟨";
  if t.vlabel <> 0 then Format.fprintf ppf "L%d:" t.vlabel;
  List.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) t.anc;
  List.iter (fun (c, m) -> Format.fprintf ppf "|%a×%d" pp c m) t.kids;
  Format.fprintf ppf "⟩"

let f_bound ~k ~t =
  let f = Array.make (t + 2) 1 in
  (* f.(d) = 2^(d-1) · (k+1)^f.(d+1), computed downward, saturating.
     At the deepest level d = t the subtree is a single vertex:
     f.(t) = 2^(t-1). *)
  let sat_mul a b = if a > 0 && b > max_int / a then max_int else a * b in
  let sat_pow b e =
    let rec go acc i =
      if i = 0 then acc
      else if acc = max_int then max_int
      else go (sat_mul acc b) (i - 1)
    in
    if b <= 1 then b else if e >= 63 then max_int else go 1 e
  in
  f.(t + 1) <- 0;
  for d = t downto 1 do
    let pow2 = sat_pow 2 (d - 1) in
    let tail = if f.(d + 1) = max_int then max_int else sat_pow (k + 1) f.(d + 1) in
    f.(d) <- sat_mul pow2 tail
  done;
  Array.sub f 1 t

type ann = { pruned : bool; vtype : Vtype.t; kindex : int; count : int }

(* ------------------------------------------------------------------ *)
(* Codecs                                                               *)
(* ------------------------------------------------------------------ *)

let write_bools w bs =
  Bitbuf.Writer.nat w (List.length bs);
  List.iter (Bitbuf.Writer.bit w) bs

let read_bools r =
  let len = Bitbuf.Reader.nat r in
  if len > 4096 then raise (Bitbuf.Decode_error "ancestor vector too long");
  List.init len (fun _ -> Bitbuf.Reader.bit r)

let rec write_vtype w t =
  Bitbuf.Writer.nat w (Vtype.label t);
  write_bools w (Vtype.anc_vector t);
  Bitbuf.Writer.nat w (List.length (Vtype.children t));
  List.iter
    (fun (c, m) ->
      write_vtype w c;
      Bitbuf.Writer.nat w m)
    (Vtype.children t)

let rec read_vtype depth r =
  if depth > 64 then raise (Bitbuf.Decode_error "type nesting too deep");
  let label = Bitbuf.Reader.nat r in
  let anc = read_bools r in
  let kinds = Bitbuf.Reader.nat r in
  if kinds > 4096 then raise (Bitbuf.Decode_error "too many child types");
  let children =
    List.init kinds (fun _ ->
        let c = read_vtype (depth + 1) r in
        let m = Bitbuf.Reader.nat r in
        if m = 0 then raise (Bitbuf.Decode_error "zero multiplicity");
        (c, m))
  in
  Vtype.make ~label ~anc ~children

let ann_codec : ann Anclist.codec =
  {
    write =
      (fun w a ->
        Bitbuf.Writer.bit w a.pruned;
        write_vtype w a.vtype;
        Bitbuf.Writer.int w a.kindex;
        Bitbuf.Writer.nat w a.count);
    read =
      (fun r ->
        let pruned = Bitbuf.Reader.bit r in
        let vtype = read_vtype 0 r in
        let kindex = Bitbuf.Reader.int r in
        let count = Bitbuf.Reader.nat r in
        if kindex < -1 then raise (Bitbuf.Decode_error "bad kernel index");
        { pruned; vtype; kindex; count })
      ;
    equal =
      (fun a b ->
        a.pruned = b.pruned
        && Vtype.equal a.vtype b.vtype
        && a.kindex = b.kindex && a.count = b.count);
  }

(* Kernel rows: (parent index + 1 — 0 for the root — and ancestor
   adjacency vector, root-first). *)
let encode_rows rows =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.list w
    (fun w (parent, anc, label) ->
      Bitbuf.Writer.nat w (parent + 1);
      write_bools w anc;
      Bitbuf.Writer.nat w label)
    rows;
  Bitbuf.Writer.contents w

let decode_rows b =
  Bitbuf.decode b (fun r ->
      Bitbuf.Reader.list r (fun r ->
          let parent = Bitbuf.Reader.nat r - 1 in
          let anc = read_bools r in
          let label = Bitbuf.Reader.nat r in
          (parent, anc, label)))

(* Rebuild the kernel graph from rows; None if the rows are not a
   well-formed bounded-depth model description. *)
let graph_of_rows rows =
  let size = Array.length rows in
  if size = 0 then None
  else begin
    let ok = ref true in
    (* ancestors root-first, via parent chains with a cycle budget *)
    let anc_chain i =
      let rec go j acc steps =
        if steps > size then begin
          ok := false;
          []
        end
        else
          let p, _, _ = rows.(j) in
          if p = -1 then acc
          else if p < 0 || p >= size then begin
            ok := false;
            []
          end
          else go p (p :: acc) (steps + 1)
      in
      go i [] 0
    in
    let roots = ref 0 in
    let es = ref [] in
    Array.iteri
      (fun i (p, anc, _label) ->
        if p = -1 then incr roots;
        let chain = anc_chain i in
        if List.length anc <> List.length chain then ok := false
        else
          List.iter2
            (fun a adjacent -> if adjacent then es := (i, a) :: !es)
            chain anc)
      rows;
    if (not !ok) || !roots <> 1 then None
    else
      match Graph.of_edges ~n:size !es with
      | g ->
          if Graph.is_connected g then
            Some (g, Array.map (fun (_, _, l) -> l) rows)
          else None
      | exception Invalid_argument _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Prover                                                               *)
(* ------------------------------------------------------------------ *)

let kernel_rows_of_reduction ?labels (red : Reduce.t) =
  let label_of v = match labels with None -> 0 | Some a -> a.(v) in
  let ktree = Reduce.kernel_tree red in
  List.map
    (fun i ->
      let v = red.of_kernel.(i) in
      let ancs_root_first = List.rev (List.tl (Elimination.ancestors red.tree v)) in
      let anc =
        List.map (fun a -> Graph.mem_edge red.graph v a) ancs_root_first
      in
      (ktree.Elimination.parent.(i), anc, label_of v))
    (List.init (Graph.n red.kernel) Fun.id)

(* DFS preorder kernel indices over surviving vertices. *)
let assign_kernel_indices (red : Reduce.t) =
  let size = Graph.n red.graph in
  let kids = Elimination.children_all red.tree in
  let kindex = Array.make size (-1) in
  let counter = ref 0 in
  let rec dfs v =
    if red.alive.(v) then begin
      kindex.(v) <- !counter;
      incr counter;
      (* children_all lists are already ascending *)
      List.iter dfs kids.(v)
    end
  in
  dfs (Elimination.root red.tree);
  kindex

let alive_counts (red : Reduce.t) =
  let size = Graph.n red.graph in
  let counts = Array.make size 0 in
  let kids = Elimination.children_all red.tree in
  let depth = Elimination.depth red.tree in
  let order = List.init size Fun.id in
  let order = List.sort (fun a b -> Int.compare depth.(b) depth.(a)) order in
  List.iter
    (fun v ->
      let own = if red.alive.(v) then 1 else 0 in
      counts.(v) <-
        own + List.fold_left (fun acc w -> acc + counts.(w)) 0 kids.(v))
    order;
  counts

let prover_certs ~k ~t phi (inst : Instance.t) model =
  let g = inst.Instance.graph in
  if not (Graph.is_connected g) then None
  else if not (Elimination.is_model model g) then None
  else
    let model = Elimination.coherentize model g in
    if Elimination.height model > t then None
    else begin
      let labels = inst.Instance.labels in
      let red = Reduce.reduce ~labels g model ~k in
      let kernel_labels = Array.map (fun v -> labels.(v)) red.of_kernel in
      if not (Eval.sentence ~labels:kernel_labels red.kernel phi) then None
      else begin
        (* Re-index kernel rows to DFS preorder so interval checks
           line up: rebuild a reduction-indexed view. *)
        let kindex = assign_kernel_indices red in
        let counts = alive_counts red in
        let size = Graph.n g in
        (* rows in DFS order *)
        let by_index = Array.make (Graph.n red.kernel) (-1) in
        for v = 0 to size - 1 do
          if kindex.(v) >= 0 then by_index.(kindex.(v)) <- v
        done;
        let rows =
          Array.to_list
            (Array.map
               (fun v ->
                 let p = model.Elimination.parent.(v) in
                 let prow = if p = -1 then -1 else kindex.(p) in
                 let ancs_root_first =
                   List.rev (List.tl (Elimination.ancestors model v))
                 in
                 let anc =
                   List.map (fun a -> Graph.mem_edge g v a) ancs_root_first
                 in
                 (prow, anc, labels.(v)))
               by_index)
        in
        let rows_bits = encode_rows rows in
        let ann v =
          {
            pruned = red.pruned.(v);
            vtype = red.end_type.(v);
            kindex = kindex.(v);
            count = counts.(v);
          }
        in
        let entry_lists = Anclist.build inst model ~ann in
        Some
          (Array.map
             (fun entries ->
               let w = Bitbuf.Writer.create () in
               Bitbuf.Writer.bitstring w
                 (Anclist.encode ~id_bits:inst.Instance.id_bits ann_codec
                    entries);
               Bitbuf.Writer.bitstring w rows_bits;
               Bitbuf.Writer.contents w)
             entry_lists)
      end
    end

(* ------------------------------------------------------------------ *)
(* Verifier                                                             *)
(* ------------------------------------------------------------------ *)

let split_cert c =
  Bitbuf.decode c (fun r ->
      let anclist = Bitbuf.Reader.bitstring r in
      let rows = Bitbuf.Reader.bitstring r in
      (anclist, rows))

(* Decoded certificate: the split halves, the ancestor-entry array, the
   kernel rows, and whether the broadcast kernel satisfies the
   sentence.  Decoding is total — a malformed layer is [None] (resp.
   [sat = false]) and the check stage reports it in the original
   order.  The expensive rows work (decode + rebuild + evaluate) is
   memoized on the rows bitstring: every vertex broadcasts the same
   rows, so it runs once per sweep however many times [decode] is
   called. *)
type dec = {
  parts : (Bitstring.t * Bitstring.t) option;
  danc : ann Anclist.entry array option;
  drows : (int * bool list * int) array option;
  sat : bool;
}

let lowering ~k ~t phi : dec Scheme.lowering =
  (* The memo is shared by every verifier call of this scheme value,
     including calls racing from parallel domains (Engine.run_par), so
     it is a sharded [Memo] keyed by the certificate's own FNV hash —
     polymorphic hashing would leak Bitstring's cached-hash field into
     the key.  The evaluation itself runs unlocked (two domains may
     compute the same entry — they agree, so last-write-wins is
     fine). *)
  let eval_memo : (Bitstring.t, (int * bool list * int) array option * bool)
      Memo.t =
    Memo.create ~name:"kernel_mso.eval" ~hash:Bitstring.hash
      ~equal:Bitstring.equal 8
  in
  let rows_of rows_bits =
    match Memo.find_opt eval_memo rows_bits with
    | Some r -> r
    | None ->
        let drows = Option.map Array.of_list (decode_rows rows_bits) in
        let sat =
          match drows with
          | None -> false
          | Some rows -> (
              match graph_of_rows rows with
              | None -> false
              | Some (kg, klabels) -> (
                  try Eval.sentence ~labels:klabels kg phi
                  with Invalid_argument _ -> false))
        in
        Memo.set eval_memo rows_bits (drows, sat);
        (drows, sat)
  in
  let decode ~id_bits c =
    match split_cert c with
    | None -> { parts = None; danc = None; drows = None; sat = false }
    | Some (anc_bits, rows_bits) ->
        let danc = Anclist.decode_arr ~id_bits ann_codec anc_bits in
        let drows, sat = rows_of rows_bits in
        { parts = Some (anc_bits, rows_bits); danc; drows; sat }
  in
  let check ~id_bits:_ ~me ~label mine ~ids ~src ~decs ~lo ~hi :
      Scheme.verdict =
    let ( let* ) = Result.bind in
    let result =
      let* mine_rows =
        match mine.parts with
        | Some (_, r) -> Ok r
        | None -> Error "malformed certificate"
      in
      let* () =
        let rec go i =
          if i >= hi then Ok ()
          else
            match decs.(src.(i)).parts with
            | None -> Error "malformed neighbor certificate"
            | Some _ -> go (i + 1)
        in
        go lo
      in
      (* broadcast agreement *)
      let* () =
        let rec go i =
          if i >= hi then Ok ()
          else
            match decs.(src.(i)).parts with
            | Some (_, r) when Bitstring.equal r mine_rows -> go (i + 1)
            | _ -> Error "kernel descriptions disagree"
        in
        go lo
      in
      let* rows =
        match mine.drows with
        | Some r -> Ok r
        | None -> Error "malformed kernel description"
      in
      (* ancestor-list checks with annotations *)
      let* analysis =
        Anclist.verify_decoded ~t_bound:t ann_codec ~me mine.danc ~ids ~src
          ~decs ~lo ~hi ~proj:(fun d -> d.danc)
      in
      let entry_arr = analysis.Anclist.aentries in
      let d = Array.length entry_arr in
      let ann_of (e : ann Anclist.entry) = e.Anclist.ann in
      (* alive(j) = no pruned flag from entry j to the root *)
      let alive = Array.make d false in
      let rec compute_alive j acc =
        (* j indexes entries from self (0) to root (d-1); walk from
           the root down *)
        if j < 0 then ()
        else begin
          let a = acc && not (ann_of entry_arr.(j)).pruned in
          alive.(j) <- a;
          compute_alive (j - 1) a
        end
      in
      compute_alive (d - 1) true;
      (* per-entry sanity: kernel index iff alive; dead subtrees count 0 *)
      let* () =
        let rec check j =
          if j >= d then Ok ()
          else
            let a = ann_of entry_arr.(j) in
            if alive.(j) <> (a.kindex >= 0) then
              Error "kernel index inconsistent with pruned flags"
            else if (not alive.(j)) && a.count <> 0 then
              Error "deleted subtree claims survivors"
            else if alive.(j) && a.count < 1 then
              Error "surviving subtree claims no survivors"
            else check (j + 1)
        in
        check 0
      in
      let my_ann = ann_of entry_arr.(0) in
      let children = analysis.Anclist.achildren in
      (* my true adjacency to my ancestors, root first *)
      let is_neighbor id =
        let rec go i = i < hi && (ids.(i) = id || go (i + 1)) in
        go lo
      in
      let anc_true =
        List.init (d - 1) (fun i ->
            is_neighbor entry_arr.(d - 1 - i).Anclist.aid)
      in
      (* count consistency *)
      let* () =
        let child_sum =
          List.fold_left (fun acc (_, a) -> acc + a.count) 0 children
        in
        let own = if alive.(0) then 1 else 0 in
        if my_ann.count = own + child_sum then Ok ()
        else Error "survivor counts do not add up"
      in
      (* end-type consistency *)
      let* () =
        let surviving = List.filter (fun (_, a) -> not a.pruned) children in
        let grouped =
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (_, a) ->
              let key = Vtype.id a.vtype in
              Hashtbl.replace tbl key
                (match Hashtbl.find_opt tbl key with
                | Some (t, c) -> (t, c + 1)
                | None -> (a.vtype, 1)))
            surviving;
          Hashtbl.fold (fun _ tc acc -> tc :: acc) tbl []
        in
        let expected = Vtype.make ~label ~anc:anc_true ~children:grouped in
        if Vtype.equal my_ann.vtype expected then Ok ()
        else Error "end type does not match children and adjacency"
      in
      (* pruning validity and maximality (Lemma 6.1) *)
      let* () =
        let surviving_of_type ty =
          List.length
            (List.filter
               (fun (_, a) -> (not a.pruned) && Vtype.equal a.vtype ty)
               children)
        in
        let rec check = function
          | [] -> Ok ()
          | (_, a) :: rest ->
              let s = surviving_of_type a.vtype in
              if a.pruned && s <> k then
                Error "pruned child without exactly k surviving siblings"
              else if (not a.pruned) && s > k then
                Error "more than k surviving children of one type"
              else check rest
        in
        check children
      in
      (* kernel-index interval tiling *)
      let* () =
        if not alive.(0) then Ok ()
        else begin
          let nrows = Array.length rows in
          if my_ann.kindex < 0 || my_ann.kindex >= nrows then
            Error "kernel index out of range"
          else begin
            let alive_children =
              List.filter (fun (_, a) -> a.kindex >= 0) children
              |> List.sort (fun (_, a) (_, b) -> Int.compare a.kindex b.kindex)
            in
            let rec tile start = function
              | [] ->
                  if start = my_ann.kindex + my_ann.count then Ok ()
                  else Error "kernel interval not fully tiled"
              | (_, a) :: rest ->
                  if a.kindex <> start then
                    Error "child kernel interval misplaced"
                  else tile (start + a.count) rest
            in
            let* () = tile (my_ann.kindex + 1) alive_children in
            (* my row *)
            let prow, panc, plabel = rows.(my_ann.kindex) in
            let* () =
              let expected_parent =
                if d = 1 then -1 else (ann_of entry_arr.(1)).kindex
              in
              if prow = expected_parent then Ok ()
              else Error "kernel row parent mismatch"
            in
            let* () =
              if panc = anc_true then Ok ()
              else Error "kernel row adjacency vector mismatch"
            in
            let* () =
              if plabel = label then Ok ()
              else Error "kernel row label mismatch"
            in
            if d = 1 then
              if my_ann.kindex = 0 && my_ann.count = nrows then Ok ()
              else Error "root kernel interval must cover all rows"
            else Ok ()
          end
        end
      in
      (* the kernel satisfies the sentence *)
      if mine.sat then Ok () else Error "kernel does not satisfy the sentence"
    in
    match result with Ok () -> Accept | Error e -> Reject e
  in
  { decode; check; flat = None }

(* ------------------------------------------------------------------ *)
(* Schemes                                                              *)
(* ------------------------------------------------------------------ *)

let default_k phi = max 1 (Formula.quantifier_rank phi)

let make ?(find_model = Treedepth_cert.default_find_model) ?k ~t phi =
  let k = match k with Some k -> k | None -> default_k phi in
  Scheme.of_lowering
    ~name:
      (Printf.sprintf "kernel-mso[%s;t=%d;k=%d]" (Formula.to_string phi) t k)
    ~prover:(fun inst ->
      match find_model inst.Instance.graph with
      | Some model -> prover_certs ~k ~t phi inst model
      | None -> None)
    (lowering ~k ~t phi)

let make_with_model ?k ~t model phi =
  let k = match k with Some k -> k | None -> default_k phi in
  Scheme.of_lowering
    ~name:
      (Printf.sprintf "kernel-mso[%s;t=%d;k=%d;fixed]" (Formula.to_string phi)
         t k)
    ~prover:(fun inst -> prover_certs ~k ~t phi inst model)
    (lowering ~k ~t phi)

type measure = {
  total_bits : int;
  anclist_bits : int;
  kernel_bits : int;
  kernel_vertices : int;
}

let measure ?k ~t model phi inst =
  let k = match k with Some k -> k | None -> default_k phi in
  match prover_certs ~k ~t phi inst model with
  | None -> None
  | Some certs ->
      let total_bits = Scheme.max_cert_bits certs in
      (* recompute the breakdown *)
      let model' = Elimination.coherentize model inst.Instance.graph in
      let red =
        Reduce.reduce ~labels:inst.Instance.labels inst.Instance.graph model' ~k
      in
      let rows_bits =
        encode_rows
          (kernel_rows_of_reduction ~labels:inst.Instance.labels red)
        |> Bitstring.length
      in
      Some
        {
          total_bits;
          anclist_bits = total_bits - rows_bits;
          kernel_bits = rows_bits;
          kernel_vertices = Graph.n red.kernel;
        }

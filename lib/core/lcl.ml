module U = Localcert_automata.Uop

type t = { name : string; alphabet : int; constraints : U.constr array }

(* Neighbor labels are counted into a per-state tally rather than a
   hash table and a sort per vertex.  The tally spans every state a
   constraint can read — the alphabet, and any larger state a
   hand-built constraint names — so a label outside it cannot change
   a verdict and is simply not counted. *)
let rec term_width = function
  | U.Count s -> s + 1
  | U.Const _ -> 0
  | U.Plus (a, b) -> max (term_width a) (term_width b)

let rec constr_width = function
  | U.Tru -> 0
  | U.Le (a, b) -> max (term_width a) (term_width b)
  | U.And (a, b) -> max (constr_width a) (constr_width b)
  | U.Not a -> constr_width a

let tally_width lcl =
  Array.fold_left (fun w c -> max w (constr_width c)) lcl.alphabet
    lcl.constraints

let[@inline] count tally l =
  if l >= 0 && l < Array.length tally then tally.(l) <- tally.(l) + 1

(* The ascending nonzero (state, count) pairs — what
   [Tree_automaton.counts_of_list] would build from the same labels,
   less the states no constraint reads — leaving the tally zeroed. *)
let drain tally =
  let counts = ref [] in
  for s = Array.length tally - 1 downto 0 do
    let c = tally.(s) in
    if c > 0 then begin
      counts := (s, c) :: !counts;
      tally.(s) <- 0
    end
  done;
  !counts

let holds_at lcl tally ~label =
  let counts = drain tally in
  label >= 0 && label < lcl.alphabet && U.holds lcl.constraints.(label) ~counts

let valid_at lcl ~label ~neighbor_labels =
  let tally = Array.make (tally_width lcl) 0 in
  List.iter (count tally) neighbor_labels;
  holds_at lcl tally ~label

let valid lcl g ~labels =
  let row_ptr, col = Graph.unsafe_csr g in
  let tally = Array.make (tally_width lcl) 0 in
  let rec go v =
    v >= Graph.n g
    || begin
         for j = row_ptr.(v) to row_ptr.(v + 1) - 1 do
           count tally labels.(col.(j))
         done;
         holds_at lcl tally ~label:labels.(v) && go (v + 1)
       end
  in
  go 0

let proper_coloring ~colors =
  if colors < 1 then invalid_arg "Lcl.proper_coloring";
  {
    name = Printf.sprintf "proper-%d-coloring" colors;
    alphabet = colors;
    constraints = Array.init colors (fun c -> U.count_le c 0);
  }

let maximal_independent_set =
  {
    name = "maximal-independent-set";
    alphabet = 2;
    constraints = [| U.count_ge 1 1 (* dominated *); U.count_le 1 0 (* independent *) |];
  }

let weak_2_coloring =
  {
    name = "weak-2-coloring";
    alphabet = 2;
    constraints = [| U.count_ge 1 1; U.count_ge 0 1 |];
  }

let at_most_k_neighbors_in_set k =
  {
    name = Printf.sprintf "at-most-%d-neighbors-in-set" k;
    alphabet = 2;
    constraints = [| U.count_le 1 k; U.Tru |];
  }

let greedy_coloring ~colors g =
  let n = Graph.n g in
  let labels = Array.make n (-1) in
  let ok = ref true in
  for v = 0 to n - 1 do
    let used =
      Array.to_list (Graph.neighbors g v)
      |> List.filter_map (fun w -> if labels.(w) >= 0 then Some labels.(w) else None)
    in
    match
      List.find_opt (fun c -> not (List.mem c used)) (List.init colors Fun.id)
    with
    | Some c -> labels.(v) <- c
    | None -> ok := false
  done;
  if !ok then Some labels else None

(* Rows are ascending, so the earlier neighbors of [v] are a prefix
   of its row: the scan stops at the first later one. *)
let greedy_mis g =
  let n = Graph.n g in
  let row_ptr, col = Graph.unsafe_csr g in
  let labels = Array.make n 0 in
  for v = 0 to n - 1 do
    let j = ref row_ptr.(v) and blocked = ref false in
    while (not !blocked) && !j < row_ptr.(v + 1) && col.(!j) < v do
      if labels.(col.(!j)) = 1 then blocked := true;
      incr j
    done;
    if not !blocked then labels.(v) <- 1
  done;
  labels

let bfs_parity_coloring g =
  if Graph.n g = 0 then [||]
  else begin
    let dist = Graph.bfs_dist g 0 in
    Array.map (fun d -> if d >= 0 then d mod 2 else 0) dist
  end

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)
(* ------------------------------------------------------------------ *)

let label_bits lcl = max 1 (Combin.ceil_log2 (max 2 lcl.alphabet))

let encode_label lcl l =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:(label_bits lcl) l;
  Bitbuf.Writer.contents w

let decode_label lcl c =
  match
    Bitbuf.decode c (fun r -> Bitbuf.Reader.fixed r ~width:(label_bits lcl))
  with
  | Some l when l < lcl.alphabet -> Some l
  | _ -> None

let lowering lcl ~check_own : int option Scheme.lowering =
  let width = tally_width lcl in
  {
    decode = (fun ~id_bits:_ c -> decode_label lcl c);
    check =
      (fun ~id_bits:_ ~me:_ ~label mine ~ids:_ ~src ~decs ~lo ~hi ->
        match mine with
        | None -> Reject "malformed label certificate"
        | Some mine ->
            if check_own && mine <> label then
              Reject "certificate does not match my input label"
            else
              let tally = Array.make width 0 in
              let malformed = ref false in
              for i = lo to hi - 1 do
                match decs.(src.(i)) with
                | None -> malformed := true
                | Some l -> count tally l
              done;
              if !malformed then Reject "malformed neighbor certificate"
              else if holds_at lcl tally ~label:mine then Accept
              else Reject "local constraint violated");
    flat = None;
  }

(* Certificates depend on the label alone: encode each symbol once and
   share it across every vertex that carries it. *)
let encode_labels lcl labels =
  let table = Array.make lcl.alphabet None in
  Array.map
    (fun l ->
      match table.(l) with
      | Some c -> c
      | None ->
          let c = encode_label lcl l in
          table.(l) <- Some c;
          c)
    labels

let scheme_of_labeled lcl =
  Scheme.of_lowering
    ~name:("lcl[" ^ lcl.name ^ "]")
    ~prover:(fun inst ->
      if valid lcl inst.Instance.graph ~labels:inst.Instance.labels then
        Some (encode_labels lcl inst.Instance.labels)
      else None)
    (lowering lcl ~check_own:true)

let scheme_of_search lcl ~solve =
  Scheme.of_lowering
    ~name:("lcl-exists[" ^ lcl.name ^ "]")
    ~prover:(fun inst ->
      match solve inst.Instance.graph with
      | Some labels when valid lcl inst.Instance.graph ~labels ->
          Some (encode_labels lcl labels)
      | _ -> None)
    (lowering lcl ~check_own:false)

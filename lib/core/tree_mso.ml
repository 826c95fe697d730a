module TA = Localcert_automata.Tree_automaton

type cert = { dist3 : int; state : int; fingerprint : int }

let fingerprint_bits = 16

let fingerprint (auto : TA.t) = Hashtbl.hash auto.TA.name land 0xFFFF

let encode ~state_bits c =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:2 c.dist3;
  Bitbuf.Writer.fixed w ~width:state_bits c.state;
  Bitbuf.Writer.fixed w ~width:fingerprint_bits c.fingerprint;
  Bitbuf.Writer.contents w

let decode ~state_bits b =
  Bitbuf.decode b (fun r ->
      let dist3 = Bitbuf.Reader.fixed r ~width:2 in
      let state = Bitbuf.Reader.fixed r ~width:state_bits in
      let fingerprint = Bitbuf.Reader.fixed r ~width:fingerprint_bits in
      { dist3; state; fingerprint })

(* Fixed-table automata report their exact state count up front; lazy
   ones (products, capped-type compilations) may report 0 or 1 before
   they have been run, so give those a roomy default.  The prover
   re-checks that every state fits (see [prover_certs]). *)
let default_state_bits (auto : TA.t) =
  let count = auto.TA.state_count () in
  if count >= 2 then Combin.ceil_log2 count else 8

(* Prover: run the automaton down the BFS tree [bt], returning every
   vertex's state.  Reversed BFS discovery order is nonincreasing
   distance, so children are always labelled before their parent.  An
   unlabelled vertex folds its children into the lowering's flat
   label-0 table — the same [table_add]/[table_delta] path the
   checker's [transition] takes, so no per-vertex allocation; a
   labelled vertex, a missing table or a child state outside it falls
   back to the exact [delta] over uncapped counts. *)
let label_run ?table (inst : Instance.t) (auto : TA.t) (bt : Graph.bfs_tree) =
  let g = inst.Instance.graph and labels = inst.Instance.labels in
  let row_ptr, col = Graph.unsafe_csr g in
  let dist = bt.Graph.dist in
  let states = Array.make (Graph.n g) (-1) in
  let exact v dv =
    let child_states = ref [] in
    for i = row_ptr.(v + 1) - 1 downto row_ptr.(v) do
      let w = col.(i) in
      if dist.(w) = dv then child_states := states.(w) :: !child_states
    done;
    auto.TA.delta ~label:labels.(v) ~counts:(TA.counts_of_list !child_states)
  in
  let order = bt.Graph.order in
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    let dv = dist.(v) + 1 in
    states.(v) <-
      (match table with
      | Some tbl when labels.(v) = 0 ->
          let packed = ref 0 and j = ref row_ptr.(v) in
          let hi = row_ptr.(v + 1) in
          while !packed >= 0 && !j < hi do
            let w = col.(!j) in
            if dist.(w) = dv then packed := TA.table_add tbl !packed states.(w);
            incr j
          done;
          if !packed >= 0 then TA.table_delta tbl !packed else exact v dv
      | _ -> exact v dv)
  done;
  states

let rec remove_one s = function
  | [] -> []
  | (s', c) :: rest when s' = s -> if c = 1 then rest else (s', c - 1) :: rest
  | x :: rest -> x :: remove_one s rest

(* Every vertex's state as the root of the tree, from the single run
   [down] rooted at [bt]'s source, by rerooting.  Walking top-down,
   [up.(c)] is the state of [c]'s parent [p] in the run rooted at [c]:
   [p]'s other children plus [up.(p)].  The root state of [p] is
   [delta] over all of those; [up.(c)] is the same multiset minus one
   child in [c]'s state, shared by the children of [p] in that state.
   Counts are exact (uncapped), as in [label_run]'s fallback, so this
   is O(n) [delta] calls in all. *)
let root_states (inst : Instance.t) (auto : TA.t) (bt : Graph.bfs_tree) down =
  let g = inst.Instance.graph and labels = inst.Instance.labels in
  let row_ptr, col = Graph.unsafe_csr g in
  let dist = bt.Graph.dist in
  let up = Array.make (Graph.n g) (-1) in
  let root = Array.make (Graph.n g) (-1) in
  Array.iter
    (fun p ->
      let label = labels.(p) and dc = dist.(p) + 1 in
      let states = ref (if dist.(p) > 0 then [ up.(p) ] else []) in
      for i = row_ptr.(p) to row_ptr.(p + 1) - 1 do
        let c = col.(i) in
        if dist.(c) = dc then states := down.(c) :: !states
      done;
      let counts = TA.counts_of_list !states in
      root.(p) <- auto.TA.delta ~label ~counts;
      let shared = ref [] in
      for i = row_ptr.(p) to row_ptr.(p + 1) - 1 do
        let c = col.(i) in
        if dist.(c) = dc then
          up.(c) <-
            (match List.assoc_opt down.(c) !shared with
            | Some u -> u
            | None ->
                let u = auto.TA.delta ~label ~counts:(remove_one down.(c) counts) in
                shared := (down.(c), u) :: !shared;
                u)
      done)
    bt.Graph.order;
  root

(* The run from the first root in [roots] whose run accepts, as
   (distances, states), or [None] (also when the graph is not a tree).
   The first root's run is kept when it accepts; otherwise one
   rerooting pass decides every other candidate, and only the chosen
   root is run again, so accepting and declining are both O(n). *)
let accepting_run ?table (inst : Instance.t) (auto : TA.t) roots =
  let g = inst.Instance.graph in
  match roots () with
  | Seq.Nil -> None
  | Seq.Cons (r0, rest) ->
      let bt = Graph.bfs_tree g r0 in
      (* connected with n - 1 edges: a tree *)
      if Array.length bt.Graph.order <> Graph.n g || Graph.m g <> Graph.n g - 1
      then None
      else
        let states = label_run ?table inst auto bt in
        if auto.TA.accepting states.(r0) then Some (bt.Graph.dist, states)
        else
          let root = lazy (root_states inst auto bt states) in
          match Seq.find (fun r -> auto.TA.accepting (Lazy.force root).(r)) rest with
          | None -> None
          | Some r ->
              let bt = Graph.bfs_tree g r in
              Some (bt.Graph.dist, label_run ?table inst auto bt)

let prover_certs ~state_bits:sb ~table (inst : Instance.t) (auto : TA.t) roots =
  match accepting_run ?table inst auto roots with
  | None -> None
  | Some (dist, states) ->
      let fp = fingerprint auto in
      let max_state = Array.fold_left max 0 states in
      if max_state >= 1 lsl sb then
        invalid_arg
          (Printf.sprintf
             "Tree_mso: automaton %s reached state %d, which does not fit \
              the %d-bit state field; pass ~state_bits"
             auto.TA.name max_state sb);
      (* certificates depend on (dist mod 3, state) only: encode each
         pair once and share it *)
      let memo = Hashtbl.create 16 in
      Some
        (Array.init (Instance.n inst) (fun v ->
             let dist3 = dist.(v) mod 3 and state = states.(v) in
             let key = dist3 + (3 * state) in
             match Hashtbl.find memo key with
             | c -> c
             | exception Not_found ->
                 let c =
                   encode ~state_bits:sb { dist3; state; fingerprint = fp }
                 in
                 Hashtbl.add memo key c;
                 c))

(* The lowered checker.  Certificates decode (totally) to [cert
   option]; the check stage walks the pre-decoded neighbor array with
   counters instead of building filtered lists.  For unlabeled trees
   (label 0, the common case) the child-state transition goes through a
   precomputed flat table (one saturating add per child, no
   allocation); any out-of-range state falls back to the exact
   [delta].  Both the interpreted verifier and the compiled engine path
   run this same [check], so their verdicts agree by construction. *)

let nbr_cert (d : cert option) =
  match d with Some c -> c | None -> assert false

let lowering ~state_bits ~table (auto : TA.t) : cert option Scheme.lowering =
  let fp = fingerprint auto in
  let slow_transition ~label ~down ~src decs ~lo ~hi =
    let states = ref [] in
    for i = hi - 1 downto lo do
      let c = nbr_cert decs.(src.(i)) in
      if c.dist3 = down then states := c.state :: !states
    done;
    auto.TA.delta ~label ~counts:(TA.counts_of_list !states)
  in
  let transition ~label ~down ~src decs ~lo ~hi =
    match table with
    | Some tbl when label = 0 ->
        let packed = ref 0 in
        let i = ref lo in
        while !packed >= 0 && !i < hi do
          let c = nbr_cert decs.(src.(!i)) in
          if c.dist3 = down then packed := TA.table_add tbl !packed c.state;
          incr i
        done;
        if !packed >= 0 then TA.table_delta tbl !packed
        else slow_transition ~label ~down ~src decs ~lo ~hi
    | _ -> slow_transition ~label ~down ~src decs ~lo ~hi
  in
  let check ~id_bits:_ ~me:_ ~label mine ~ids:_ ~src ~decs ~lo ~hi :
      Scheme.verdict =
    match mine with
    | None -> Reject "malformed certificate"
    | Some mine ->
        if mine.fingerprint <> fp then Reject "automaton fingerprint mismatch"
        else if mine.dist3 > 2 then Reject "invalid mod-3 distance"
        else
          let rec malformed i =
            i < hi
            && (Option.is_none decs.(src.(i)) || malformed (i + 1))
          in
          if malformed lo then Reject "malformed neighbor certificate"
          else
            let rec bad_fp i =
              i < hi
              && ((nbr_cert decs.(src.(i))).fingerprint <> fp || bad_fp (i + 1))
            in
            if bad_fp lo then Reject "neighbor fingerprint mismatch"
            else begin
              let up = (mine.dist3 + 2) mod 3
              and down = (mine.dist3 + 1) mod 3 in
              let parents = ref 0 and children = ref 0 in
              for i = lo to hi - 1 do
                let c = nbr_cert decs.(src.(i)) in
                if c.dist3 = up then incr parents
                else if c.dist3 = down then incr children
              done;
              if !parents + !children <> hi - lo then
                Reject "neighbor at my own mod-3 distance"
              else if !parents >= 2 then Reject "two parents"
              else if !parents = 1 then
                if transition ~label ~down ~src decs ~lo ~hi <> mine.state then
                  Reject "state is not the transition of the children states"
                else Accept
              else if mine.dist3 <> 0 then Reject "root must have distance 0"
              else if transition ~label ~down ~src decs ~lo ~hi <> mine.state then
                Reject "root state is not the transition of the children"
              else if not (auto.TA.accepting mine.state) then
                Reject "root state is not accepting"
              else Accept
            end
  in
  { decode = (fun ~id_bits:_ c -> decode ~state_bits c); check; flat = None }

(* One label-0 table per scheme, built when the scheme is made and
   shared by its prover and its checker. *)
let make_scheme ?state_bits ~name auto roots =
  let sb = match state_bits with Some b -> b | None -> default_state_bits auto in
  let table = TA.tabulate auto ~label:0 in
  Scheme.of_lowering ~name
    ~prover:(fun inst -> prover_certs ~state_bits:sb ~table inst auto (roots inst))
    (lowering ~state_bits:sb ~table auto)

let make ?state_bits auto =
  make_scheme ?state_bits ~name:("tree-mso[" ^ auto.TA.name ^ "]") auto
    (fun inst -> Seq.init (Instance.n inst) Fun.id)

let make_with_root ?state_bits ~root auto =
  make_scheme ?state_bits
    ~name:(Printf.sprintf "tree-mso[%s]@%d" auto.TA.name root)
    auto
    (fun _ -> Seq.return root)

(* The literal certificate of Appendix C.1: mod-3 counter, automaton
   description (the encoded UOP table), and run state. *)
let make_table table =
  let module U = Localcert_automata.Uop in
  let auto = U.to_tree_automaton table in
  let table_bits = U.encode table in
  let sb = max 1 (Combin.ceil_log2 (max 2 table.U.states)) in
  let encode_full dist3 state =
    let w = Bitbuf.Writer.create () in
    Bitbuf.Writer.fixed w ~width:2 dist3;
    Bitbuf.Writer.fixed w ~width:sb state;
    Bitbuf.Writer.contents w
    |> fun prefix -> Bitstring.append prefix table_bits
  in
  let decode_full c =
    let expected_len = 2 + sb + Bitstring.length table_bits in
    if Bitstring.length c <> expected_len then None
    else
      let prefix = Bitstring.sub c ~pos:0 ~len:(2 + sb) in
      let rest = Bitstring.sub c ~pos:(2 + sb) ~len:(Bitstring.length table_bits) in
      if not (Bitstring.equal rest table_bits) then None
      else
        Bitbuf.decode prefix (fun r ->
            let dist3 = Bitbuf.Reader.fixed r ~width:2 in
            let state = Bitbuf.Reader.fixed r ~width:sb in
            (dist3, state))
  in
  let prover (inst : Instance.t) =
    Option.map
      (fun (dist, states) ->
        Array.init (Instance.n inst) (fun v ->
            encode_full (dist.(v) mod 3) states.(v)))
      (accepting_run inst auto (Seq.init (Instance.n inst) Fun.id))
  in
  let check ~id_bits:_ ~me:_ ~label mine ~ids ~src ~decs ~lo ~hi :
      Scheme.verdict =
    match mine with
    | None -> Reject "malformed certificate or wrong automaton description"
    | Some (dist3, state) -> (
        match Scheme.decoded_neighbors ~ids ~src ~decs ~lo ~hi with
        | None -> Reject "malformed neighbor certificate"
        | Some nbrs ->
            let nbrs = List.map snd nbrs in
            let up = (dist3 + 2) mod 3 and down = (dist3 + 1) mod 3 in
            let parents = List.filter (fun (d, _) -> d = up) nbrs in
            let children = List.filter (fun (d, _) -> d = down) nbrs in
            if List.length parents + List.length children <> List.length nbrs
            then Reject "neighbor at my own mod-3 distance"
            else
              let expected =
                auto.TA.delta ~label
                  ~counts:(TA.counts_of_list (List.map snd children))
              in
              match parents with
              | _ :: _ :: _ -> Reject "two parents"
              | [ _ ] ->
                  if expected <> state then Reject "transition mismatch"
                  else Accept
              | [] ->
                  if dist3 <> 0 then Reject "root must have distance 0"
                  else if expected <> state then
                    Reject "root transition mismatch"
                  else if not (auto.TA.accepting state) then
                    Reject "root state not accepting"
                  else Accept)
  in
  Scheme.of_lowering
    ~name:("tree-mso-table[" ^ table.U.name ^ "]")
    ~prover
    { decode = (fun ~id_bits:_ c -> decode_full c); check; flat = None }

let with_tree_promise_check scheme =
  Scheme.conjoin
    ~name:(scheme.Scheme.name ^ "+acyclic")
    Spanning_tree.acyclicity scheme

let cert_size ?state_bits auto inst =
  let scheme = make ?state_bits auto in
  Scheme.certificate_size scheme inst

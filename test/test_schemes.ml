(* Tests for the certification framework and the simpler schemes:
   spanning trees, vertex count, acyclicity, universal, existential-FO,
   depth-2 fragment, and the scheme combinators.

   Pattern: completeness (prover's certificates accepted everywhere on
   yes-instances), refusal on no-instances, and adversarial soundness
   (random corruption, transplants, and exhaustive tiny budgets never
   fool the verifier on no-instances). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let inst ?ids g = Instance.make ?ids g

let complete scheme instance =
  match Scheme.certify scheme instance with
  | None -> Alcotest.failf "%s: prover declined a yes-instance" scheme.Scheme.name
  | Some (_, outcome) ->
      if not outcome.Scheme.accepted then
        Alcotest.failf "%s: rejected: %s" scheme.Scheme.name
          (String.concat "; "
             (List.map
                (fun (v, r) -> Printf.sprintf "%d:%s" v r)
                outcome.Scheme.rejections))

let declines scheme instance =
  check
    (scheme.Scheme.name ^ " declines no-instance")
    true
    (scheme.Scheme.prover instance = None)

(* soundness probe on a no-instance: nothing fools all vertices *)
let unfoolable ?(trials = 300) ?(max_bits = 24) scheme instance =
  let rng = Rng.make 1234 in
  let report = Attack.random_assignments rng scheme instance ~trials ~max_bits in
  check (scheme.Scheme.name ^ " random attack") true (report.Attack.fooled = None)

(* --- instance basics --- *)

let instance_ids () =
  let i = inst (Gen.path 4) in
  check_int "default ids" 1 (Instance.id_of i 0);
  check_int "id bits" 3 i.Instance.id_bits;
  Alcotest.(check (list int)) "neighbor ids" [ 1; 3 ] (Instance.neighbor_ids i 1);
  check "reverse lookup" true (Instance.vertex_of_id i 3 = Some 2);
  check "missing id" true (Instance.vertex_of_id i 9 = None);
  check "duplicate ids rejected" true
    (try ignore (Instance.make ~ids:[| 1; 1; 2; 3 |] (Gen.path 4)); false
     with Invalid_argument _ -> true)

(* Id arrays of five kinds: the default, ascending, shuffled, with a
   planted duplicate, and with a planted id < 1.  [Instance.make] must
   reject exactly the last two, keep accepted ids as given, and number
   a default instance 1..n. *)
let qcheck_instance_ids =
  QCheck.Test.make ~name:"Instance.make rejects exactly the bad id arrays"
    ~count:300
    QCheck.(triple (int_range 1 60) (int_range 0 4) int)
    (fun (n, kind, seed) ->
      let r = Rng.make seed in
      let g = Gen.random_tree r n in
      (* n distinct ids from [1, 4n], ascending *)
      let ascending =
        let picked = Array.make ((4 * n) + 1) false and k = ref 0 in
        while !k < n do
          let id = 1 + Rng.int r (4 * n) in
          if not picked.(id) then begin
            picked.(id) <- true;
            incr k
          end
        done;
        let acc = ref [] in
        for id = 4 * n downto 1 do
          if picked.(id) then acc := id :: !acc
        done;
        Array.of_list !acc
      in
      let shuffled () =
        let perm = Rng.permutation r n in
        Array.init n (fun i -> ascending.(perm.(i)))
      in
      let made ids =
        match Instance.make ?ids g with
        | i -> Some i.Instance.ids
        | exception Invalid_argument _ -> None
      in
      match kind with
      | 0 -> made None = Some (Array.init n (fun v -> v + 1))
      | 1 -> made (Some ascending) = Some ascending
      | 2 ->
          let ids = shuffled () in
          made (Some ids) = Some ids
      | 3 ->
          if n < 2 then true
          else begin
            let ids = if Rng.int r 2 = 0 then Array.copy ascending else shuffled () in
            let i = Rng.int r n in
            let j = (i + 1 + Rng.int r (n - 1)) mod n in
            ids.(j) <- ids.(i);
            made (Some ids) = None
          end
      | _ ->
          let ids = if Rng.int r 2 = 0 then Array.copy ascending else shuffled () in
          ids.(Rng.int r n) <- -Rng.int r 3;
          made (Some ids) = None)

let instance_random_ids () =
  let rng = Rng.make 5 in
  let i = Instance.with_random_ids rng (inst (Gen.cycle 6)) in
  let ids = Array.to_list i.Instance.ids in
  check_int "still 6 ids" 6 (List.length (List.sort_uniq Int.compare ids));
  check "polynomial range" true (List.for_all (fun id -> id >= 1 && id <= 36) ids)

(* --- spanning tree --- *)

let spanning_tree_complete () =
  List.iter
    (fun g -> complete (Spanning_tree.scheme ()) (inst g))
    [ Gen.path 5; Gen.cycle 7; Gen.star 6; Gen.clique 4; Gen.grid 3 3 ]

let spanning_tree_sizes () =
  (* O(log n): id widths dominate *)
  let size n =
    Option.get (Scheme.certificate_size (Spanning_tree.scheme ()) (inst (Gen.path n)))
  in
  check "grows slowly" true (size 128 <= size 8 + 24);
  check "log-ish" true (size 128 <= 4 * Combin.ceil_log2 129 + 16)

let spanning_tree_random_ids () =
  let rng = Rng.make 77 in
  for _ = 1 to 5 do
    complete (Spanning_tree.scheme ())
      (Instance.with_random_ids rng (inst (Gen.random_connected rng ~n:12 ~extra_edges:4)))
  done

(* Every spanning-family prover declines a disconnected graph.  A
   triangle plus an isolated vertex has m = n - 1 edges, so acyclicity
   must see the disconnection itself, not just the edge count; the
   counted scheme's chosen root is the isolated vertex, so its tree is
   the smaller side.  An empty graph never reaches a prover:
   [Instance.make] refuses it. *)
let spanning_family_declines () =
  let split = inst (Graph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2) ]) in
  let yes ~total:_ ~me:_ ~degree:_ = true in
  List.iter
    (fun s -> declines s split)
    [
      Spanning_tree.scheme ();
      Spanning_tree.scheme ~root:3 ();
      Spanning_tree.acyclicity;
      Spanning_tree.vertex_count ~expected:(fun _ -> true) "any";
      Spanning_tree.counted ~name:"counted-any" ~total_pred:(fun _ -> true)
        ~local:yes ~root_check:(fun ~total:_ ~degree:_ -> true) ();
      Spanning_tree.counted ~choose_root:(fun _ -> Some 3) ~name:"counted-at-3"
        ~total_pred:(fun _ -> true) ~local:yes
        ~root_check:(fun ~total:_ ~degree:_ -> true) ();
      (* Existential FO declines through its connectivity pre-check: at
         k = 0 no spanning tree is built at all, and at k >= 1 the
         check is what spares the n^k witness search. *)
      Existential_fo.make (Parser.parse_exn "true");
      Existential_fo.make (Parser.parse_exn "exists x. x = x");
    ];
  check "no empty instance" true
    (try ignore (Instance.make (Graph.empty 0)); false
     with Invalid_argument _ -> true)

(* --- acyclicity --- *)

let acyclicity_complete () =
  List.iter
    (fun g -> complete Spanning_tree.acyclicity (inst g))
    [ Gen.path 6; Gen.star 7; Gen.complete_binary_tree 3;
      Gen.caterpillar ~spine:4 ~legs:2 ]

let acyclicity_declines () =
  List.iter
    (fun g -> declines Spanning_tree.acyclicity (inst g))
    [ Gen.cycle 5; Gen.clique 4; Gen.grid 2 3 ]

let acyclicity_sound () =
  List.iter
    (fun g -> unfoolable Spanning_tree.acyclicity (inst g))
    [ Gen.cycle 5; Gen.grid 2 3 ]

let acyclicity_transplant () =
  (* transplant a valid path certification onto a cycle of equal size:
     must be caught *)
  let from_instance = inst (Gen.path 6) in
  let to_instance =
    inst (Graph.of_edges ~n:6 ((5, 0) :: Graph.edges (Gen.path 6)))
  in
  let r =
    Attack.transplant Spanning_tree.acyclicity ~from_instance ~to_instance
  in
  check "transplant caught" true (r.Attack.fooled = None)

let acyclicity_exhaustive_tiny () =
  (* triangle with 2-bit certificates: exhaustive refutation *)
  let r =
    Attack.exhaustive Spanning_tree.acyclicity (inst (Gen.cycle 3)) ~max_bits:2
  in
  check "exhaustive: always a rejector" true (r.Attack.fooled = None);
  check "tried everything" true (r.Attack.trials = 7 * 7 * 7)

(* --- vertex count --- *)

let vertex_count_complete () =
  let scheme = Spanning_tree.vertex_count ~expected:(fun n -> n = 9) "n=9" in
  complete scheme (inst (Gen.grid 3 3));
  declines scheme (inst (Gen.path 8))

let vertex_count_sound () =
  (* claim n = 5 on a 6-vertex path: soundness via attacks *)
  let scheme = Spanning_tree.vertex_count ~expected:(fun n -> n = 5) "n=5" in
  unfoolable scheme (inst (Gen.path 6));
  (* and transplant the honest n=5 certs onto the 6-path: caught *)
  let ok = inst (Gen.path 5) in
  (match Scheme.certify scheme ok with
  | Some (_, o) -> check "complete on P5" true o.Scheme.accepted
  | None -> Alcotest.fail "P5 should be certifiable");
  let parity = Spanning_tree.vertex_count ~expected:(fun n -> n mod 2 = 0) "even" in
  complete parity (inst (Gen.path 6));
  declines parity (inst (Gen.path 5));
  unfoolable parity (inst (Gen.path 5))

let vertex_count_sizes () =
  let size n = Spanning_tree.count_cert_size (inst (Gen.path n)) in
  (* Θ(log n) *)
  check "log growth" true (size 256 <= size 16 * 3)

(* --- universal scheme --- *)

let universal_complete () =
  let tri_free = Universal.make ~name:"triangle-free" Props.triangle_free.Props.check in
  complete tri_free (inst (Gen.cycle 5));
  complete tri_free (inst (Gen.path 6));
  declines tri_free (inst (Gen.clique 3))

let universal_sound () =
  let tri_free = Universal.make ~name:"triangle-free" Props.triangle_free.Props.check in
  unfoolable ~max_bits:40 tri_free (inst (Gen.clique 3));
  (* transplant: certify C5, replay on C5-plus-chord (has a triangle) *)
  let c5 = Gen.cycle 5 in
  let chord = Graph.add_edge c5 0 2 in
  let r =
    Attack.transplant tri_free ~from_instance:(inst c5) ~to_instance:(inst chord)
  in
  check "transplant caught" true (r.Attack.fooled = None)

let universal_of_formula () =
  let phi = Parser.parse_exn "forall x. forall y. x = y | x -- y" in
  let s = Universal.of_formula phi in
  complete s (inst (Gen.clique 4));
  declines s (inst (Gen.path 3))

let universal_size_quadratic () =
  let size n = Universal.cert_size (inst (Gen.clique n)) in
  check "quadratic-ish growth" true (size 16 > 3 * size 8)

(* --- existential FO --- *)

let existential_strip () =
  let phi = Parser.parse_exn "exists x. exists y. x -- y & ~(x = y)" in
  match Existential_fo.strip_existentials phi with
  | Some (vars, _) -> Alcotest.(check (list string)) "vars" [ "x"; "y" ] vars
  | None -> Alcotest.fail "should strip"

let existential_complete () =
  (* "there exist two adjacent vertices of degree... keep simple:
     a triangle exists" *)
  let phi =
    Parser.parse_exn "exists x. exists y. exists z. x -- y & y -- z & x -- z"
  in
  let s = Existential_fo.make phi in
  complete s (inst (Graph.add_edge (Gen.cycle 5) 0 2));
  complete s (inst (Gen.clique 4));
  declines s (inst (Gen.cycle 5));
  declines s (inst (Gen.path 4))

let existential_sound () =
  let phi =
    Parser.parse_exn "exists x. exists y. exists z. x -- y & y -- z & x -- z"
  in
  let s = Existential_fo.make phi in
  unfoolable ~max_bits:40 s (inst (Gen.cycle 5))

let existential_sizes () =
  let phi = Parser.parse_exn "exists x. exists y. x -- y" in
  let s = Existential_fo.make phi in
  let size n = Option.get (Scheme.certificate_size s (inst (Gen.path n))) in
  check "O(k log n)" true (size 128 <= 2 * size 8 + 40)

let existential_rejects_universal () =
  check "refuses universal sentences" true
    (try
       ignore (Existential_fo.make (Parser.parse_exn "forall x. x = x"));
       false
     with Invalid_argument _ -> true)

(* --- depth-2 fragment --- *)

let depth2_complete_and_declines () =
  let p5 = inst (Gen.path 5) and k4 = inst (Gen.clique 4) in
  let k1 = inst (Graph.empty 1) and star = inst (Gen.star 5) in
  complete Depth2_fo.at_most_one_vertex k1;
  (* trivial schemes never decline: their verifier rejects instead *)
  (match Scheme.certify Depth2_fo.at_most_one_vertex p5 with
  | Some (_, o) -> check "n<=1 rejected on P5" false o.Scheme.accepted
  | None -> Alcotest.fail "trivial scheme always produces certificates");
  complete Depth2_fo.more_than_one_vertex p5;
  complete Depth2_fo.is_clique k4;
  declines Depth2_fo.is_clique star;
  complete Depth2_fo.not_clique star;
  declines Depth2_fo.not_clique k4;
  complete Depth2_fo.has_dominating_vertex star;
  complete Depth2_fo.has_dominating_vertex k4;
  declines Depth2_fo.has_dominating_vertex p5;
  complete Depth2_fo.no_dominating_vertex p5;
  declines Depth2_fo.no_dominating_vertex star

let depth2_sound () =
  unfoolable Depth2_fo.is_clique (inst (Gen.star 5));
  unfoolable Depth2_fo.has_dominating_vertex (inst (Gen.path 5));
  unfoolable Depth2_fo.no_dominating_vertex (inst (Gen.star 5))

(* --- combinators --- *)

let combinators () =
  let acy = Spanning_tree.acyclicity in
  let clique = Depth2_fo.is_clique in
  let both = Scheme.conjoin ~name:"tree-and-clique" acy clique in
  (* K2 is both a tree and a clique *)
  complete both (inst (Gen.path 2));
  declines both (inst (Gen.clique 4));
  declines both (inst (Gen.path 3) |> fun i -> i);
  check "conjoin declines P3" true (both.Scheme.prover (inst (Gen.path 3)) = None);
  let either = Scheme.disjoin ~name:"tree-or-clique" acy clique in
  complete either (inst (Gen.path 5));
  complete either (inst (Gen.clique 4));
  unfoolable either (inst (Graph.add_edge (Gen.cycle 5) 0 2))

let conjoin_rejects_mixed_certs () =
  (* valid halves from different instances must not splice *)
  let acy = Spanning_tree.acyclicity in
  let count9 = Spanning_tree.vertex_count ~expected:(fun n -> n = 9) "n=9" in
  let s = Scheme.conjoin ~name:"tree-and-9" acy count9 in
  complete s (inst (Gen.star 9));
  declines s (inst (Gen.star 8));
  unfoolable s (inst (Gen.star 8))

(* --- attack harness self-tests --- *)

let attack_reports () =
  (* a scheme that accepts anything is fooled instantly *)
  let yes =
    Scheme.trivial ~name:"always-yes" (fun ~degree:_ -> Scheme.Accept)
  in
  let rng = Rng.make 1 in
  let r =
    Attack.random_assignments rng yes (inst (Gen.path 3)) ~trials:10 ~max_bits:2
  in
  check "fooled" true (r.Attack.fooled <> None);
  check_int "stopped early" 1 r.Attack.trials;
  (* a scheme that rejects everything is never fooled *)
  let no =
    Scheme.trivial ~name:"always-no" (fun ~degree:_ -> Scheme.Reject "no")
  in
  let r = Attack.exhaustive no (inst (Gen.path 2)) ~max_bits:1 in
  check "never fooled" true (r.Attack.fooled = None);
  check_int "3^2 assignments" 9 r.Attack.trials

let corruption_on_yes_instances () =
  (* flipping bits of a valid acyclicity certificate must never crash
     the verifier (Decode_error is a rejection, not an exception) *)
  let scheme = Spanning_tree.acyclicity in
  let instance = inst (Gen.complete_binary_tree 3) in
  match Scheme.certify scheme instance with
  | None -> Alcotest.fail "complete binary tree is a tree"
  | Some (certs, _) ->
      let rng = Rng.make 9 in
      (* corrupted certificates may or may not be accepted (the
         property still holds, and e.g. a swap of equal certificates is
         harmless), but no exception may escape the verifier *)
      let r = Attack.corruptions rng scheme instance ~base:certs ~trials:500 in
      check "ran without exceptions" true (r.Attack.trials >= 1);
      (* on the no-instance side the same corruptions never fool *)
      let no_inst = inst (Gen.cycle 7) in
      (match Scheme.certify Spanning_tree.acyclicity no_inst with
      | Some _ -> Alcotest.fail "cycle is not a tree"
      | None -> ());
      let star_certs =
        Option.get (Spanning_tree.acyclicity.Scheme.prover (inst (Gen.star 7)))
      in
      let r2 =
        Attack.corruptions rng Spanning_tree.acyclicity no_inst
          ~base:star_certs ~trials:500
      in
      check "no-instance never fooled" true (r2.Attack.fooled = None)

(* --- reason strings --- *)

(* Every Reject branch of the spanning family, pinned as an exact
   verdict three ways: the interpreted oracle ([Scheme.verify]), the
   compiled kernel ([Vcompile.compile]), and the lowering's [check] on
   a neighbor slice with [lo > 0] and [hi] short of the array end whose
   [src] is not the identity: the decoded values sit in reverse order
   between malformed padding, and every slot outside the slice points
   at padding, so a check that reads a value by slot instead of
   through [src] sees junk. *)

type spec =
  | Bad  (** the empty bitstring: malformed for every decode below *)
  | T of int * int * int  (** root id, distance, parent id *)
  | C of int * int * int * int * int  (** ... then subtree size, total *)
  | Raw of Bitstring.t

let encode_spec ~id_bits = function
  | Bad -> Bitstring.empty
  | T (root_id, dist, parent_id) ->
      Spanning_tree.encode ~id_bits { Spanning_tree.root_id; dist; parent_id }
  | C (root, dist, parent, size, total) ->
      let w = Bitbuf.Writer.create () in
      Bitbuf.Writer.fixed w ~width:id_bits root;
      Bitbuf.Writer.nat w dist;
      Bitbuf.Writer.fixed w ~width:id_bits parent;
      Bitbuf.Writer.nat w size;
      Bitbuf.Writer.nat w total;
      Bitbuf.Writer.contents w
  | Raw b -> b

let string_of_verdict = function
  | Scheme.Accept -> "accept"
  | Scheme.Reject r -> "reject: " ^ r

let three_ways scheme (i : Instance.t) certs v =
  let view = Scheme.view_of i certs v in
  let kernel = (Vcompile.compile scheme i certs).Vcompile.check in
  let sliced =
    match scheme.Scheme.lowering with
    | Scheme.Compiled l ->
        let id_bits = view.Scheme.id_bits in
        let pad = 3 and deg = List.length view.Scheme.nbrs in
        let len = deg + (2 * pad) in
        let junk = l.Scheme.decode ~id_bits Bitstring.empty in
        let ids = Array.make len 0 in
        let src = Array.init len (fun i -> len - 1 - i) in
        let decs = Array.make len junk in
        List.iteri
          (fun k (id, c) ->
            ids.(pad + k) <- id;
            decs.(src.(pad + k)) <- l.Scheme.decode ~id_bits c)
          view.Scheme.nbrs;
        l.Scheme.check ~id_bits ~me:view.Scheme.me ~label:view.Scheme.label
          (l.Scheme.decode ~id_bits view.Scheme.cert)
          ~ids ~src ~decs ~lo:pad ~hi:(pad + deg)
  in
  [
    ("verify", Scheme.verify scheme view);
    ("kernel", kernel v);
    ("sliced", sliced);
  ]

let reason_case scheme i specs v want =
  let certs = Array.map (encode_spec ~id_bits:i.Instance.id_bits) specs in
  List.iter
    (fun (path, got) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at %d via %s" scheme.Scheme.name v path)
        want (string_of_verdict got))
    (three_ways scheme i certs v)

let with_at specs k s =
  let a = Array.copy specs in
  a.(k) <- s;
  a

let reason_table () =
  let p3 = inst (Gen.path 3) in
  let tree = [| T (1, 0, 1); T (1, 1, 1); T (1, 2, 2) |] in
  let count = [| C (1, 0, 1, 3, 3); C (1, 1, 1, 2, 3); C (1, 2, 2, 1, 3) |] in
  let counted =
    Spanning_tree.counted ~name:"count-table"
      ~total_pred:(fun n -> n <> 4)
      ~local:(fun ~total:_ ~me ~degree:_ -> me <> 9)
      ~root_check:(fun ~total:_ ~degree -> degree = 1)
      ()
  in
  let spanning = Spanning_tree.scheme () and acy = Spanning_tree.acyclicity in
  (* The spanning-tree core, one cascade in all three families: (vertex
     checked, vertex whose certificate is replaced, replacement as a
     count tuple or [None] for malformed, reason). *)
  let core =
    [
      (1, 1, None, "malformed certificate");
      (1, 0, None, "malformed neighbor certificate");
      (1, 2, Some (3, 2, 2, 1, 3), "root ids disagree");
      (1, 1, Some (1, 0, 1, 2, 3), "distance 0 but not the claimed root");
      (0, 0, Some (1, 0, 2, 3, 3), "root must be its own parent");
      (0, 0, Some (1, 1, 1, 3, 3), "claimed root has nonzero distance");
      (2, 2, Some (1, 2, 1, 1, 3), "parent is not a neighbor");
      (2, 2, Some (1, 3, 2, 1, 3), "parent distance is not mine minus one");
    ]
  in
  let core_cases =
    List.concat_map
      (fun (v, k, c, reason) ->
        let as_tree, as_count =
          match c with
          | None -> (Bad, Bad)
          | Some (r, d, p, sz, t) -> (T (r, d, p), C (r, d, p, sz, t))
        in
        let want = "reject: " ^ reason in
        [
          (spanning, p3, with_at tree k as_tree, v, want);
          (acy, p3, with_at tree k as_tree, v, want);
          (counted, p3, with_at count k as_count, v, want);
        ])
      core
  in
  let accepts =
    List.concat_map
      (fun v ->
        [
          (spanning, p3, tree, v, "accept");
          (acy, p3, tree, v, "accept");
          (counted, p3, count, v, "accept");
        ])
      [ 0; 1; 2 ]
  in
  let non_tree = "reject: non-tree edge detected" in
  let acyclicity_cases =
    [
      (* a triangle's BFS certificates: the edge between the two
         distance-1 vertices is neither parent nor child *)
      (acy, inst (Gen.cycle 3), [| T (1, 0, 1); T (1, 1, 1); T (1, 1, 1) |], 1,
       non_tree);
      (* at the root: its one neighbor claims distance 2 *)
      (acy, p3, with_at tree 1 (T (1, 2, 2)), 0, non_tree);
    ]
  in
  let counting_cases =
    [
      (counted, p3, with_at count 2 (C (1, 2, 2, 1, 4)), 1,
       "reject: totals disagree");
      (counted, p3, with_at count 1 (C (1, 1, 1, 5, 3)), 1,
       "reject: subtree size does not match children");
      (counted, p3,
       [| C (1, 0, 1, 3, 4); C (1, 1, 1, 2, 4); C (1, 2, 2, 1, 4) |], 0,
       "reject: root size differs from claimed total");
      (counted, inst (Gen.path 4),
       [| C (1, 0, 1, 4, 4); C (1, 1, 1, 3, 4); C (1, 2, 2, 2, 4);
          C (1, 3, 3, 1, 4) |], 0,
       "reject: total fails the predicate");
      (counted, inst ~ids:[| 1; 2; 9 |] (Gen.path 3), count, 2,
       "reject: local degree check failed");
      (* rooted at the middle vertex, whose degree is 2 *)
      (counted, p3,
       [| C (2, 1, 2, 1, 3); C (2, 0, 2, 3, 3); C (2, 1, 2, 1, 3) |], 1,
       "reject: root check failed");
    ]
  in
  (* Existential FO runs one spanning-tree check per witness and
     prefixes the tree's index.  "exists x y. x -- y" on P3 picks
     witnesses (v0, v1); a certificate keeps the honest shared part
     and carries one (distance, parent id) pair per tree. *)
  let efo = Existential_fo.make (Parser.parse_exn "exists x. exists y. x -- y") in
  let efo_certs = Option.get (efo.Scheme.prover p3) in
  let shared = Bitbuf.Reader.(bitstring (of_bitstring efo_certs.(0))) in
  let efo_cert trees =
    let w = Bitbuf.Writer.create () in
    Bitbuf.Writer.bitstring w shared;
    List.iter
      (fun (d, p) ->
        Bitbuf.Writer.nat w d;
        Bitbuf.Writer.fixed w ~width:p3.Instance.id_bits p)
      trees;
    Raw (Bitbuf.Writer.contents w)
  in
  let efo_honest = Array.map (fun c -> Raw c) efo_certs in
  let efo_cases =
    [
      (efo, p3, efo_honest, 2, "accept");
      (efo, p3, with_at efo_honest 2 (efo_cert [ (1, 1); (1, 2) ]), 2,
       "reject: tree 0: parent is not a neighbor");
      (efo, p3, with_at efo_honest 2 (efo_cert [ (2, 2); (2, 2) ]), 2,
       "reject: tree 1: parent distance is not mine minus one");
    ]
  in
  List.iter
    (fun (scheme, i, specs, v, want) -> reason_case scheme i specs v want)
    (accepts @ core_cases @ acyclicity_cases @ counting_cases @ efo_cases)

(* A certificate decodes straight into its plane row: the row is valid
   exactly where [Bitbuf.decode] accepts the fields, trailing bits
   included, and a valid row holds the decoded fields.  Inputs encode
   random fields, then append random bits and cut a random number off
   the end, so both valid and refused rows occur. *)
let qcheck_rows_match_decode =
  let fixed k = k = 0 || k = 2 in
  QCheck.Test.make ~count:500
    ~name:"plane rows valid exactly where Bitbuf.decode accepts"
    QCheck.(
      make
        Gen.(
          quad (1 -- 9) (list_repeat 5 (0 -- 300)) (list_size (0 -- 3) bool)
            (0 -- 3)))
    (fun (id_bits, fields, extra, cut) ->
      let fields = List.map (fun x -> x land ((1 lsl id_bits) - 1)) fields in
      let agrees scheme k =
        let w = Bitbuf.Writer.create () in
        List.iteri
          (fun i x ->
            if i < k then
              if fixed i then Bitbuf.Writer.fixed w ~width:id_bits x
              else Bitbuf.Writer.nat w x)
          fields;
        let full =
          Bitstring.append (Bitbuf.Writer.contents w) (Bitstring.of_bools extra)
        in
        let c =
          Bitstring.sub full ~pos:0 ~len:(max 0 (Bitstring.length full - cut))
        in
        let row =
          match scheme.Scheme.lowering with
          | Scheme.Compiled l ->
              let f = Option.get l.Scheme.flat in
              let row = Array.make f.Scheme.width 0 in
              f.Scheme.read ~id_bits c row 0;
              row
        in
        match
          Bitbuf.decode c (fun r ->
              List.init k (fun i ->
                  if fixed i then Bitbuf.Reader.fixed r ~width:id_bits
                  else Bitbuf.Reader.nat r))
        with
        | None -> row.(0) = 0
        | Some fs -> row.(0) = 1 && Array.to_list (Array.sub row 1 k) = fs
      in
      agrees (Spanning_tree.scheme ()) 3
      && agrees (Spanning_tree.vertex_count ~expected:(fun _ -> true) "any") 5)

let suite =
  [
    ( "core:instance",
      [
        Alcotest.test_case "ids" `Quick instance_ids;
        Alcotest.test_case "random ids" `Quick instance_random_ids;
        QCheck_alcotest.to_alcotest qcheck_instance_ids;
      ] );
    ( "core:spanning-tree",
      [
        Alcotest.test_case "complete" `Quick spanning_tree_complete;
        Alcotest.test_case "sizes" `Quick spanning_tree_sizes;
        Alcotest.test_case "random ids" `Quick spanning_tree_random_ids;
        Alcotest.test_case "family declines disconnected" `Quick
          spanning_family_declines;
        Alcotest.test_case "reason strings" `Quick reason_table;
        QCheck_alcotest.to_alcotest qcheck_rows_match_decode;
      ] );
    ( "core:acyclicity",
      [
        Alcotest.test_case "complete" `Quick acyclicity_complete;
        Alcotest.test_case "declines" `Quick acyclicity_declines;
        Alcotest.test_case "sound" `Quick acyclicity_sound;
        Alcotest.test_case "transplant" `Quick acyclicity_transplant;
        Alcotest.test_case "exhaustive tiny" `Quick acyclicity_exhaustive_tiny;
      ] );
    ( "core:vertex-count",
      [
        Alcotest.test_case "complete" `Quick vertex_count_complete;
        Alcotest.test_case "sound" `Quick vertex_count_sound;
        Alcotest.test_case "sizes" `Quick vertex_count_sizes;
      ] );
    ( "core:universal",
      [
        Alcotest.test_case "complete" `Quick universal_complete;
        Alcotest.test_case "sound" `Quick universal_sound;
        Alcotest.test_case "of_formula" `Quick universal_of_formula;
        Alcotest.test_case "quadratic size" `Quick universal_size_quadratic;
      ] );
    ( "core:existential-fo",
      [
        Alcotest.test_case "strip" `Quick existential_strip;
        Alcotest.test_case "complete" `Quick existential_complete;
        Alcotest.test_case "sound" `Quick existential_sound;
        Alcotest.test_case "sizes" `Quick existential_sizes;
        Alcotest.test_case "rejects universal" `Quick existential_rejects_universal;
      ] );
    ( "core:depth2",
      [
        Alcotest.test_case "complete/declines" `Quick depth2_complete_and_declines;
        Alcotest.test_case "sound" `Quick depth2_sound;
      ] );
    ( "core:combinators",
      [
        Alcotest.test_case "conjoin/disjoin" `Quick combinators;
        Alcotest.test_case "no cert splicing" `Quick conjoin_rejects_mixed_certs;
      ] );
    ( "core:attack",
      [
        Alcotest.test_case "harness self-test" `Quick attack_reports;
        Alcotest.test_case "corruption robustness" `Quick corruption_on_yes_instances;
      ] );
  ]

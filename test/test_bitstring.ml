(* Differential tests for the word-level bit-string core.

   [Bitstring]'s append/sub/xor/extract and [Bitbuf]'s writer/reader
   run on whole bytes with shift-merge tails; the reference model is
   the obvious bit-at-a-time one over [bool list].  Every property
   draws random *unaligned* lengths so the merge paths (offset mod 8
   ≠ 0, spill into the next byte, partial last byte) are the common
   case, not the corner.

   The second half pins the certificate-dedupe invariant:
   [Cert_store.intern_all] is observation-equal, so [Scheme.certify],
   [Engine.run_par] and a faulty [Runtime.execute] must produce
   byte-identical results on a raw certificate array and on its
   deduped copy. *)

let check = Alcotest.(check bool)

let seed_arbitrary = QCheck.(int_bound 1_000_000)

let pool4 = Pool.create ~jobs:4 ()
let () = at_exit (fun () -> Pool.shutdown pool4)

(* ------------------------------------------------------------------ *)
(* Reference model: bool lists                                        *)
(* ------------------------------------------------------------------ *)

let bools_of rng len = List.init len (fun _ -> Rng.bool rng)

(* Random lengths land on every residue mod 8, including 0. *)
let len_of rng = Rng.int rng 201

let qcheck_of_to_bools =
  QCheck.Test.make ~name:"of_bools/to_bools is the identity" ~count:500
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let bs = bools_of rng (len_of rng) in
      let b = Bitstring.of_bools bs in
      Bitstring.to_bools b = bs
      && Bitstring.length b = List.length bs
      && List.mapi (fun i _ -> Bitstring.get b i) bs
         = List.mapi (fun i _ -> List.nth bs i) bs)

let qcheck_append =
  QCheck.Test.make ~name:"append ≡ list append (unaligned lengths)"
    ~count:500 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let xs = bools_of rng (len_of rng) in
      let ys = bools_of rng (len_of rng) in
      Bitstring.to_bools
        (Bitstring.append (Bitstring.of_bools xs) (Bitstring.of_bools ys))
      = xs @ ys)

let slice xs pos len = List.filteri (fun i _ -> i >= pos && i < pos + len) xs

let qcheck_sub =
  QCheck.Test.make ~name:"sub ≡ list slice (unaligned pos and len)"
    ~count:500 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let xs = bools_of rng (1 + len_of rng) in
      let n = List.length xs in
      let pos = Rng.int rng (n + 1) in
      let len = Rng.int rng (n - pos + 1) in
      Bitstring.to_bools (Bitstring.sub (Bitstring.of_bools xs) ~pos ~len)
      = slice xs pos len)

(* Equality, hash and compare must agree across different construction
   paths of the same bits — append/sub produce values whose internal
   byte alignment history differs, and the lazily cached hash must not
   observe that. *)
let qcheck_equal_hash_compare =
  QCheck.Test.make ~name:"equal/hash/compare agree across constructions"
    ~count:500 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let xs = bools_of rng (1 + len_of rng) in
      let n = List.length xs in
      let cut = Rng.int rng (n + 1) in
      let direct = Bitstring.of_bools xs in
      let via_append =
        Bitstring.append
          (Bitstring.of_bools (slice xs 0 cut))
          (Bitstring.of_bools (slice xs cut (n - cut)))
      in
      let via_sub =
        (* embed at an unaligned offset, then slice back out *)
        let pad = bools_of rng (1 + Rng.int rng 13) in
        Bitstring.sub
          (Bitstring.append (Bitstring.of_bools pad) direct)
          ~pos:(List.length pad) ~len:n
      in
      let flipped = Bitstring.flip direct (Rng.int rng n) in
      (* force one hash before the equality checks so cached and
         uncached values meet *)
      ignore (Bitstring.hash via_append);
      Bitstring.equal direct via_append
      && Bitstring.equal direct via_sub
      && Bitstring.hash direct = Bitstring.hash via_append
      && Bitstring.hash direct = Bitstring.hash via_sub
      && Bitstring.compare direct via_append = 0
      && Bitstring.compare direct via_sub = 0
      && (not (Bitstring.equal direct flipped))
      && Bitstring.compare direct flipped <> 0)

let qcheck_xor =
  QCheck.Test.make ~name:"xor ≡ pointwise xor; self-xor is zero"
    ~count:500 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let n = len_of rng in
      let xs = bools_of rng n and ys = bools_of rng n in
      let a = Bitstring.of_bools xs and b = Bitstring.of_bools ys in
      Bitstring.to_bools (Bitstring.xor a b)
      = List.map2 (fun x y -> x <> y) xs ys
      && Bitstring.equal (Bitstring.xor a a)
           (Bitstring.of_bools (List.map (fun _ -> false) xs)))

let qcheck_extract =
  QCheck.Test.make ~name:"unsafe_extract ≡ MSB-first fold" ~count:500
    seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let xs = bools_of rng (1 + len_of rng) in
      let n = List.length xs in
      let pos = Rng.int rng n in
      let width = 1 + Rng.int rng (min 62 (n - pos)) in
      let expected =
        List.fold_left
          (fun acc b -> (acc lsl 1) lor if b then 1 else 0)
          0
          (slice xs pos width)
      in
      Bitstring.unsafe_extract (Bitstring.of_bools xs) ~pos ~width = expected)

(* ------------------------------------------------------------------ *)
(* Bitbuf: word-level writer/reader vs the bit-level reference        *)
(* ------------------------------------------------------------------ *)

let bits_of_fixed ~width v =
  List.init width (fun i -> (v lsr (width - 1 - i)) land 1 = 1)

let rec bit_count n = if n = 0 then 0 else 1 + bit_count (n lsr 1)

(* Elias gamma of n+1: k-1 zeros, then the k bits of n+1. *)
let bits_of_nat n =
  let k = bit_count (n + 1) in
  List.init (k - 1) (fun _ -> false) @ bits_of_fixed ~width:k (n + 1)

type op = Bit of bool | Fixed of int * int | Nat of int | Bits of bool list

let op_of rng =
  match Rng.int rng 4 with
  | 0 -> Bit (Rng.bool rng)
  | 1 ->
      let width = 1 + Rng.int rng 62 in
      let v =
        if width >= 62 then Rng.int rng max_int
        else Rng.int rng (1 lsl width)
      in
      Fixed (width, v)
  | 2 -> Nat (Rng.int rng 1_000_000)
  | _ -> Bits (bools_of rng (Rng.int rng 41))

let qcheck_writer_matches_reference =
  QCheck.Test.make
    ~name:"Writer emits exactly the reference bits; Reader restores"
    ~count:500 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let ops = List.init (Rng.int rng 20) (fun _ -> op_of rng) in
      let w = Bitbuf.Writer.create () in
      let expected =
        List.concat_map
          (fun op ->
            match op with
            | Bit b ->
                Bitbuf.Writer.bit w b;
                [ b ]
            | Fixed (width, v) ->
                Bitbuf.Writer.fixed w ~width v;
                bits_of_fixed ~width v
            | Nat n ->
                Bitbuf.Writer.nat w n;
                bits_of_nat n
            | Bits bs ->
                Bitbuf.Writer.bitstring w (Bitstring.of_bools bs);
                bits_of_nat (List.length bs) @ bs)
          ops
      in
      let contents = Bitbuf.Writer.contents w in
      Bitstring.to_bools contents = expected
      && Bitbuf.decode contents (fun r ->
             List.for_all
               (fun op ->
                 match op with
                 | Bit b -> Bitbuf.Reader.bit r = b
                 | Fixed (width, v) -> Bitbuf.Reader.fixed r ~width = v
                 | Nat n -> Bitbuf.Reader.nat r = n
                 | Bits bs ->
                     Bitstring.to_bools (Bitbuf.Reader.bitstring r) = bs)
               ops)
         = Some true)

(* A gamma code with 62 leading zeros is 2^62 + tail: an int holds it
   only at tail 0, as max_int ([Writer.nat max_int]).  Any other tail
   must fail to decode, not wrap to a negative int. *)
let nat_past_max_int () =
  let nat write =
    let w = Bitbuf.Writer.create () in
    write w;
    Bitbuf.decode (Bitbuf.Writer.contents w) Bitbuf.Reader.nat
  in
  let code tail w =
    Bitbuf.Writer.fixed w ~width:63 1;
    Bitbuf.Writer.fixed w ~width:62 tail
  in
  let expect what want got = Alcotest.(check (option int)) what want got in
  expect "Writer.nat max_int round-trips" (Some max_int)
    (nat (fun w -> Bitbuf.Writer.nat w max_int));
  expect "tail 0" (Some max_int) (nat (code 0));
  List.iter
    (fun tail -> expect (Printf.sprintf "tail %d" tail) None (nat (code tail)))
    [ 1; 2; 1 lsl 61; max_int ]

(* ------------------------------------------------------------------ *)
(* Dedupe transparency                                                *)
(* ------------------------------------------------------------------ *)

let outcome_equal = Test_engine.outcome_equal

(* Half prover certificates (covering the all-accept path), half random
   garbage (covering dense rejection). *)
let certs_of = Test_engine.certs_of

let entry_of seed = List.nth Registry.all (seed mod List.length Registry.all)

(* [Scheme.certify] dedupes the prover's output before it verifies;
   the raw prover output verified as is must agree bit for bit. *)
let qcheck_dedupe_certify =
  QCheck.Test.make
    ~name:"Scheme.certify byte-identical to the raw prover and Scheme.run"
    ~count:40 seed_arbitrary (fun seed ->
      let e = entry_of seed in
      let sc = e.Registry.scheme in
      let inst = e.Registry.instance (Rng.make seed) in
      let strings certs = Array.map Bitstring.to_string certs in
      match (Scheme.certify sc inst, sc.Scheme.prover inst) with
      | None, None -> true
      | Some (ca, oa), Some raw ->
          strings ca = strings raw && outcome_equal oa (Scheme.run sc inst raw)
      | _ -> false)

let qcheck_dedupe_run_par =
  QCheck.Test.make
    ~name:"Engine.run_par outcome identical on raw and deduped certificates"
    ~count:40 seed_arbitrary (fun seed ->
      let e = entry_of seed in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let raw = certs_of rng.(1) e.Registry.scheme inst in
      let run certs = Engine.run_par ~pool:pool4 e.Registry.scheme inst certs in
      outcome_equal (run raw) (run (Cert_store.intern_all raw)))

let stress_plan =
  List.fold_left Fault.union (Fault.drops 0.15)
    [
      Fault.flips 0.15;
      Fault.corruption 0.1;
      Fault.crashes 0.05;
      Fault.byzantine ~bits:6 0.1;
    ]

let qcheck_dedupe_runtime =
  QCheck.Test.make
    ~name:"faulty Runtime.execute trace byte-identical on raw and deduped certificates"
    ~count:30 seed_arbitrary (fun seed ->
      let e = entry_of seed in
      let rng = Rng.split (Rng.make seed) 2 in
      let inst = e.Registry.instance rng.(0) in
      let raw = certs_of rng.(1) e.Registry.scheme inst in
      let run certs =
        Runtime.execute ~pool:pool4 ~plan:stress_plan ~rounds:3 ~seed
          e.Registry.scheme inst certs
      in
      let a = run raw and b = run (Cert_store.intern_all raw) in
      Trace.to_json a.Runtime.trace = Trace.to_json b.Runtime.trace
      && outcome_equal a.Runtime.outcome b.Runtime.outcome
      && a.Runtime.detected_at = b.Runtime.detected_at)

(* Below the arena threshold, dedupe shares equal payloads in place:
   one physical value per payload, empties untouched, no arena. *)
let dedupe_shares_small () =
  let a = Bitstring.of_string "1011001" in
  let b =
    Bitstring.append (Bitstring.of_string "101") (Bitstring.of_string "1001")
  in
  let c = Bitstring.of_string "0110" in
  let empty = Bitstring.of_string "" in
  let packs = (Cert_store.stats ()).Cert_store.arena_packs in
  let out = Cert_store.intern_all [| a; c; empty; b; c |] in
  check "equal payloads physically shared" true
    (out.(0) == out.(3) && out.(1) == out.(4));
  check "first occurrence kept in place" true (out.(0) == a && out.(1) == c);
  check "empty certificate passes through" true (out.(2) == empty);
  check "distinct payloads stay apart" false (out.(0) == out.(1));
  check "equal to the input" true
    (Array.for_all2 Bitstring.equal [| a; c; empty; b; c |] out);
  Alcotest.(check int)
    "no arena pack" packs (Cert_store.stats ()).Cert_store.arena_packs

(* ------------------------------------------------------------------ *)
(* Born-packed certificates                                            *)
(* ------------------------------------------------------------------ *)

(* Two certificate arrays agree as values: each pair equal, with equal
   hashes, and [compare] orders every adjacent pair the same way. *)
let agree packed single =
  let n = Array.length single in
  let sign x = Int.compare x 0 in
  Array.length packed = n
  && List.for_all
       (fun i ->
         let p = packed.(i) and s = single.(i) in
         let j = (i + 1) mod n in
         Bitstring.equal p s
         && Bitstring.hash p = Bitstring.hash s
         && Bitstring.compare p s = 0
         && sign (Bitstring.compare p packed.(j))
            = sign (Bitstring.compare s single.(j)))
       (List.init n Fun.id)

let write_op w = function
  | Bit b -> Bitbuf.Writer.bit w b
  | Fixed (width, v) -> Bitbuf.Writer.fixed w ~width v
  | Nat n -> Bitbuf.Writer.nat w n
  | Bits bs -> Bitbuf.Writer.bitstring w (Bitstring.of_bools bs)

(* Random programs give every residue mod 8 and empty certificates. *)
let qcheck_pack_matches_writers =
  QCheck.Test.make ~name:"Bitbuf.pack ≡ one writer per certificate"
    ~count:300 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      let progs =
        Array.init (Rng.int rng 12) (fun _ ->
            List.init (Rng.int rng 6) (fun _ -> op_of rng))
      in
      let single =
        Array.map
          (fun ops ->
            let w = Bitbuf.Writer.create () in
            List.iter (write_op w) ops;
            Bitbuf.Writer.contents w)
          progs
      in
      agree
        (Bitbuf.pack (Array.length progs) (fun w i ->
             List.iter (write_op w) progs.(i)))
        single)

(* The spanning family's certificates one by one, from the BFS tree
   at [root]: the tree fields for spanning and acyclicity, plus subtree
   sizes summed up the BFS order and the total for the count schemes. *)
let spanning_oracle (inst : Instance.t) root =
  let g = inst.graph and ids = inst.ids and id_bits = inst.id_bits in
  let n = Graph.n g in
  let t = Graph.bfs_tree g root in
  let size = Array.make n 1 in
  for k = n - 1 downto 1 do
    let v = t.order.(k) in
    size.(t.parent.(v)) <- size.(t.parent.(v)) + size.(v)
  done;
  let parent_id v = ids.(if t.parent.(v) < 0 then v else t.parent.(v)) in
  let tree =
    Array.init n (fun v ->
        Spanning_tree.encode ~id_bits
          { root_id = ids.(root); dist = t.dist.(v); parent_id = parent_id v })
  in
  let count =
    Array.init n (fun v ->
        Spanning_tree.encode_count ~id_bits
          {
            c_root_id = ids.(root);
            c_dist = t.dist.(v);
            c_parent_id = parent_id v;
            size = size.(v);
            total = n;
          })
  in
  (tree, count)

(* The highest-degree vertex (the first on ties), so the counted
   scheme's tree is not rooted at vertex 0. *)
let hub g =
  Graph.fold_vertices
    (fun v best -> if Graph.degree g v > Graph.degree g best then v else best)
    g 0

let hub_counted =
  Spanning_tree.counted
    ~choose_root:(fun g -> Some (hub g))
    ~name:"counted[hub]" ~total_pred:(fun _ -> true)
    ~local:(fun ~total:_ ~me:_ ~degree:_ -> true)
    ~root_check:(fun ~total:_ ~degree:_ -> true)
    ()

let packed_family_agrees inst =
  let tree, count = spanning_oracle inst 0 in
  let _, hub_count = spanning_oracle inst (hub inst.Instance.graph) in
  List.for_all
    (fun (sc, single) ->
      match sc.Scheme.prover inst with
      | Some packed -> agree packed single
      | None -> false)
    [
      (Spanning_tree.scheme (), tree);
      (Spanning_tree.acyclicity, tree);
      (Spanning_tree.vertex_count ~expected:(fun _ -> true) "any", count);
      (hub_counted, hub_count);
    ]

(* Random trees and relabelled paths, under default or shuffled,
   widely spaced identifiers. *)
let tree_instance rng n =
  let g =
    if Rng.bool rng then Gen.random_tree rng n
    else Graph.relabel (Gen.path n) (Rng.permutation rng n)
  in
  if Rng.bool rng then Instance.make g
  else
    Instance.make
      ~ids:(Array.map (fun p -> (7 * p) + 1) (Rng.permutation rng n))
      g

let qcheck_packed_spanning_family =
  QCheck.Test.make
    ~name:"spanning-family provers: packed ≡ per-certificate encoders"
    ~count:60 seed_arbitrary (fun seed ->
      let rng = Rng.make seed in
      packed_family_agrees (tree_instance rng (1 + Rng.int rng 300)))

let packed_spanning_family_large () =
  check "n = 70000" true
    (packed_family_agrees (tree_instance (Rng.make 11) 70_000))

(* [Scheme.intern]: a plane lowering's array comes back physically
   unchanged; a boxed lowering's is deduped — tree-MSO at
   certify-stream's scale has 2×10⁵ certificates and 6 payloads. *)
let intern_only_where_dedupe_pays () =
  let inst = Instance.make (Gen.random_tree (Rng.make 3) 500) in
  List.iter
    (fun sc ->
      let certs = Option.get (sc.Scheme.prover inst) in
      check (sc.Scheme.name ^ ": same array") true
        (Scheme.intern sc certs == certs))
    [
      Spanning_tree.scheme ();
      Spanning_tree.acyclicity;
      Spanning_tree.vertex_count ~expected:(fun _ -> true) "any";
      hub_counted;
    ];
  let n = 200_000 in
  let inst =
    Instance.make
      (Graph.relabel (Gen.path n) (Rng.permutation (Rng.make 7) n))
  in
  let sc = Tree_mso.make Library.has_perfect_matching.Library.auto in
  let raw = Option.get (sc.Scheme.prover inst) in
  let interned = Scheme.intern sc raw in
  check "equal to the prover's" true
    (Array.for_all2 Bitstring.equal raw interned);
  let sorted = Array.copy interned in
  Array.sort Bitstring.compare sorted;
  let payloads = ref 1 and values = ref 1 in
  for i = 1 to n - 1 do
    if not (Bitstring.equal sorted.(i - 1) sorted.(i)) then incr payloads;
    if sorted.(i - 1) != sorted.(i) then incr values
  done;
  Alcotest.(check int) "distinct payloads" 6 !payloads;
  Alcotest.(check int) "one value per payload" 6 !values

let suite =
  [
    ( "bitstring-diff",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_of_to_bools;
          qcheck_append;
          qcheck_sub;
          qcheck_equal_hash_compare;
          qcheck_xor;
          qcheck_extract;
          qcheck_writer_matches_reference;
          qcheck_pack_matches_writers;
        ]
      @ [ Alcotest.test_case "nat past max_int fails" `Quick nat_past_max_int ]
    );
    ( "packed-certs",
      [
        QCheck_alcotest.to_alcotest qcheck_packed_spanning_family;
        Alcotest.test_case "spanning family packed at n = 70000" `Quick
          packed_spanning_family_large;
        Alcotest.test_case "Scheme.intern dedupes only boxed lowerings"
          `Quick intern_only_where_dedupe_pays;
      ] );
    ( "interning",
      Alcotest.test_case "small arrays share equal payloads in place" `Quick
        dedupe_shares_small
      :: List.map QCheck_alcotest.to_alcotest
           [ qcheck_dedupe_certify; qcheck_dedupe_run_par; qcheck_dedupe_runtime ]
    );
  ]

(* Differential suites for the CSR graph substrate (DESIGN §5.7).

   The CSR swap touched every adjacency consumer in the tree, so these
   tests hold the new representation against an independent reference
   model — plain sorted adjacency lists rebuilt here from the edge
   list — on every [Graph] observation, on random inputs.  Streaming
   ingestion is held against [of_edges] the same way, and the arena
   packing of [Cert_store.intern_all] against the identity. *)

let check = Alcotest.(check bool)

(* Random edge multiset over [n] vertices: duplicates and both
   orientations included deliberately — [of_edges] must canonicalize
   them away. *)
let random_edges rng n =
  let k = Rng.int rng (3 * n) in
  List.init k (fun _ ->
      let u = Rng.int rng n and v = Rng.int rng n in
      if Rng.bool rng then (u, v) else (v, u))
  |> List.filter (fun (u, v) -> u <> v)

(* Reference model: sorted dedup'd adjacency lists. *)
let reference n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  Array.map (fun l -> List.sort_uniq compare l) adj

let seed_arbitrary = QCheck.(pair (int_range 1 40) (int_bound 1_000_000))

let qcheck_csr_vs_reference =
  QCheck.Test.make ~name:"CSR agrees with reference adjacency on all ops"
    ~count:300 seed_arbitrary (fun (n, seed) ->
      let rng = Rng.make seed in
      let edges = random_edges rng n in
      let g = Graph.of_edges ~n edges in
      let adj = reference n edges in
      let m_ref =
        Array.fold_left (fun acc l -> acc + List.length l) 0 adj / 2
      in
      Graph.n g = n
      && Graph.m g = m_ref
      && List.for_all
           (fun v ->
             Graph.degree g v = List.length adj.(v)
             && Array.to_list (Graph.neighbors g v) = adj.(v)
             && (let acc = ref [] in
                 Graph.iter_neighbors g v (fun w -> acc := w :: !acc);
                 List.rev !acc = adj.(v))
             && Graph.fold_neighbors g v (fun acc _ -> acc + 1) 0
                = List.length adj.(v)
             && List.for_all
                  (fun w ->
                    Graph.mem_edge g v w = List.mem w adj.(v))
                  (List.init n Fun.id))
           (List.init n Fun.id)
      && Graph.edges g
         = List.sort compare
             (List.concat_map
                (fun v -> List.filter_map
                   (fun w -> if v < w then Some (v, w) else None)
                   adj.(v))
                (List.init n Fun.id))
      && (let acc = ref [] in
          Graph.iter_edges g (fun u v -> acc := (u, v) :: !acc);
          List.rev !acc = Graph.edges g))

let qcheck_csr_invariants =
  QCheck.Test.make ~name:"unsafe_csr rows are strictly sorted and symmetric"
    ~count:200 seed_arbitrary (fun (n, seed) ->
      let rng = Rng.make seed in
      let g = Graph.of_edges ~n (random_edges rng n) in
      let rp, col = Graph.unsafe_csr g in
      Array.length rp = n + 1
      && rp.(0) = 0
      && rp.(n) = Array.length col
      && List.for_all
           (fun v ->
             rp.(v) <= rp.(v + 1)
             && (let ok = ref true in
                 for i = rp.(v) to rp.(v + 1) - 1 do
                   if col.(i) < 0 || col.(i) >= n || col.(i) = v then
                     ok := false;
                   if i > rp.(v) && col.(i - 1) >= col.(i) then ok := false;
                   if not (Graph.mem_edge g col.(i) v) then ok := false
                 done;
                 !ok))
           (List.init n Fun.id))

(* [of_iter] insertion-sorts rows of at most 16 entries in place and
   sorts longer ones with [Array.sort]; both must agree with the plain
   sort-then-dedupe of every row as it fills.  Rows are built to fill
   descending, in random order or ascending, with duplicates, and with
   lengths on both sides of the 16-entry cut. *)
let qcheck_row_sort_vs_array_sort =
  QCheck.Test.make ~name:"of_iter row sort ≡ Array.sort on every row"
    ~count:300 seed_arbitrary (fun (n, seed) ->
      let rng = Rng.make seed in
      let n = n + 1 in
      let edges =
        List.concat_map
          (fun u ->
            let d = Rng.int rng (if Rng.int rng 4 = 0 then 40 else 20) in
            let nbrs =
              List.init d (fun _ -> Rng.int rng n)
              |> List.filter (fun v -> v <> u)
            in
            let nbrs =
              match Rng.int rng 3 with
              | 0 -> List.sort (fun a b -> Int.compare b a) nbrs
              | 1 -> List.sort Int.compare nbrs
              | _ -> nbrs
            in
            List.map (fun v -> (u, v)) nbrs)
          (List.init n Fun.id)
      in
      let rows = Array.make n [] in
      List.iter
        (fun (u, v) ->
          rows.(u) <- v :: rows.(u);
          rows.(v) <- u :: rows.(v))
        edges;
      let expected =
        Array.map
          (fun r ->
            let a = Array.of_list (List.rev r) in
            Array.sort Int.compare a;
            List.sort_uniq Int.compare (Array.to_list a))
          rows
      in
      let g = Graph.of_edges ~n edges in
      let rp, col = Graph.unsafe_csr g in
      List.for_all
        (fun v ->
          Array.to_list (Array.sub col rp.(v) (rp.(v + 1) - rp.(v)))
          = expected.(v))
        (List.init n Fun.id))

let qcheck_bfs_vs_reference =
  QCheck.Test.make ~name:"bfs_tree distances match a reference BFS" ~count:200
    seed_arbitrary (fun (n, seed) ->
      let rng = Rng.make seed in
      let edges = random_edges rng n in
      let g = Graph.of_edges ~n edges in
      let adj = reference n edges in
      let dist_ref = Array.make n (-1) in
      let q = Queue.create () in
      dist_ref.(0) <- 0;
      Queue.add 0 q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun w ->
            if dist_ref.(w) < 0 then begin
              dist_ref.(w) <- dist_ref.(v) + 1;
              Queue.add w q
            end)
          adj.(v)
      done;
      let t = Graph.bfs_tree g 0 in
      t.Graph.dist = dist_ref
      && (* order is a BFS discovery order: nondecreasing distance,
            every reached vertex present exactly once *)
      (let reached =
         Array.to_list t.Graph.order |> List.sort_uniq compare
       in
       List.length reached = Array.length t.Graph.order
       && List.for_all (fun v -> dist_ref.(v) >= 0) reached)
      && Array.for_all
           (fun v ->
             match t.Graph.parent.(v) with
             | -1 -> v = 0 || dist_ref.(v) < 0
             | p -> dist_ref.(p) = dist_ref.(v) - 1 && Graph.mem_edge g p v)
           (Array.init n Fun.id))

(* Satellite: [neighbors] returns a fresh array — mutating it must not
   corrupt the graph (the old representation leaked its backing
   arrays, a mutation away from an unsound verifier). *)
let neighbors_freshness () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4) ] in
  let nb = Graph.neighbors g 2 in
  Array.fill nb 0 (Array.length nb) 99;
  check "graph unchanged after mutating neighbors result" true
    (Array.to_list (Graph.neighbors g 2) = [ 0; 1; 3 ]);
  check "second call unaffected" true (Graph.degree g 2 = 3)

let of_iter_rejects_diverging_iterator () =
  (* an iterator that emits different edges on its two passes *)
  let calls = ref 0 in
  let iter f =
    incr calls;
    if !calls = 1 then f 0 1
    else begin
      f 0 1;
      f 1 2
    end
  in
  match Graph.of_iter ~n:3 iter with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "diverging iterator not rejected"

(* ------------------------------------------------------------------ *)
(* Streaming ingestion                                                 *)

let with_edge_file text f =
  let path = Filename.temp_file "csr_edges" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      f path)

let qcheck_edge_list_stream_equals_of_edges =
  QCheck.Test.make ~name:"of_edge_list ≡ of_edges (and file ≡ string)"
    ~count:200 seed_arbitrary (fun (n, seed) ->
      let rng = Rng.make seed in
      let edges = random_edges rng n in
      let g = Graph.of_edges ~n edges in
      let text =
        Printf.sprintf "%d %d\n%s" n (List.length edges)
          (String.concat "\n"
             (List.map (fun (u, v) -> Printf.sprintf "%d %d" u v) edges))
      in
      let via_string =
        match Io.of_edge_list text with
        | Ok g' -> Graph.equal g g'
        | Error _ -> false
      in
      let via_file =
        with_edge_file text (fun path ->
            match Io.of_edge_list_file path with
            | Ok g' -> Graph.equal g g'
            | Error _ -> false)
      in
      via_string && via_file)

(* Both readers on the same text: the file reader must answer exactly
   as the string reader does, graph or error string. *)
let readers_agree label text =
  let via_string = Io.of_edge_list text in
  let via_file = with_edge_file text Io.of_edge_list_file in
  match (via_string, via_file) with
  | Ok g, Ok g' -> check (label ^ ": same graph") true (Graph.equal g g')
  | Error e, Error e' -> Alcotest.(check string) (label ^ ": same error") e e'
  | Ok _, Error e -> Alcotest.failf "%s: only the file reader fails (%s)" label e
  | Error e, Ok _ -> Alcotest.failf "%s: only the string reader fails (%s)" label e

let edge_list_malformed () =
  let bad =
    [
      "";
      "3";
      "3 2\n0 1";
      (* fewer endpoints than the header claims *)
      "3 1\n0 1 2 0";
      (* more *)
      "3 1\n0 3";
      (* endpoint out of range *)
      "3 1\n0 x";
      "-1 0";
      "2 1\n0 1 trailing";
      (* above max_int: must not wrap around to a valid vertex *)
      "3 2\n0 1\n9223372036854775810 1\n";
      "4611686018427387904 0";
      "3 4611686018427387904\n0 1";
      "3 1\n0 -4611686018427387905";
    ]
  in
  List.iter
    (fun text ->
      check (Printf.sprintf "rejects %S" text) true
        (Result.is_error (Io.of_edge_list text));
      readers_agree (Printf.sprintf "%S" text) text)
    bad;
  (* the largest int still parses, as a (too large) vertex id *)
  Alcotest.(check (result unit string))
    "max_int is in range" (Error "Graph: vertex 4611686018427387903 out of [0,3)")
    (Result.map ignore (Io.of_edge_list "3 1\n0 4611686018427387903"))

(* The file reader refills its buffer one chunk at a time.  Pad each
   case with whitespace so that the byte at [split] of [feature] is the
   first byte of the second chunk: a number, a '-' sign, a "\r\n" and
   a trailing-garbage byte each straddle the refill. *)
let edge_list_chunk_boundaries () =
  let straddle before feature ~split after =
    let pad = Io.chunk_size - String.length before - split in
    before ^ String.make pad ' ' ^ feature ^ after
  in
  let cases =
    [
      ("number", straddle "100000 2\n0 1\n" "54321" ~split:2 " 7\n");
      ("minus sign", straddle "3 1\n0 " "-1" ~split:1 "\n");
      ("crlf", straddle "3 2\n0 1" "\r\n" ~split:1 "1 2\r\n");
      ("garbage after a token", straddle "3 1\n0 " "1x" ~split:1 "\n");
      ("garbage after the edges", straddle "3 1\n0 1" " x" ~split:1 "");
      ( "overflow",
        straddle "3 1\n0 " "9223372036854775810" ~split:10 "\n" );
    ]
  in
  List.iter
    (fun (label, text) ->
      check (label ^ " spans two chunks") true
        (String.length text > Io.chunk_size);
      readers_agree label text)
    cases;
  check "number case parses" true
    (Result.is_ok (Io.of_edge_list (List.assoc "number" cases)));
  check "crlf case parses" true
    (Result.is_ok (Io.of_edge_list (List.assoc "crlf" cases)))

(* The scanner reads a common token (unsigned, at most 18 digits,
   whitespace after it in the same chunk) on a fast path and everything
   else from the token's first byte on the general one.  The oracle
   text keeps the separators and pads every token with zeros to 20
   digits, which sends each one down the general path with the same
   value (or the same fault): both readers must give its graph or its
   error string, and a valid list must give [of_edges]'s graph.  The
   tested text mixes natural, 18- and 19-digit renderings under runs of
   space, tab, CR and LF, and a whitespace prefix puts the chunk
   boundary inside one of its first tokens. *)
type token = Num of int | Over | Neg of int | Junk of int

(* [pad_to] = 0 renders a number in its natural width. *)
let render_token ~pad_to tok =
  let digits k =
    if pad_to > 0 then Printf.sprintf "%0*d" pad_to k else string_of_int k
  in
  match tok with
  | Num k -> digits k
  | Over -> String.make (max 0 (pad_to - 19)) '0' ^ "9223372036854775810"
  | Neg k -> "-" ^ digits k
  | Junk k -> digits k ^ "x"

let qcheck_scanner_fast_path =
  QCheck.Test.make ~name:"scanner fast path ≡ general path ≡ of_edges"
    ~count:150
    QCheck.(pair seed_arbitrary (int_bound 3))
    (fun ((n, seed), fault) ->
      let rng = Rng.make seed in
      let edges = random_edges rng n in
      let toks =
        Array.of_list
          (Num n
          :: Num (List.length edges)
          :: List.concat_map (fun (u, v) -> [ Num u; Num v ]) edges)
      in
      (* one faulty token past the header, in three cases of four *)
      let faulty = fault > 0 && Array.length toks > 2 in
      if faulty then
        toks.(2 + Rng.int rng (Array.length toks - 2)) <-
          (match fault with 1 -> Over | 2 -> Neg 1 | _ -> Junk 1);
      let ws = [| " "; "\t"; "\r"; "\n" |] in
      let seps =
        Array.map
          (fun _ ->
            String.concat ""
              (List.init (1 + Rng.int rng 3) (fun _ -> ws.(Rng.int rng 4))))
          toks
      in
      let text pad =
        String.concat ""
          (List.mapi
             (fun i t -> render_token ~pad_to:(pad i) t ^ seps.(i))
             (Array.to_list toks))
      in
      let widths = Array.map (fun _ -> [| 0; 18; 19 |].(Rng.int rng 3)) toks in
      let tested =
        String.make (Io.chunk_size - Rng.int rng 24) ' '
        ^ text (fun i -> widths.(i))
      in
      let expected = Io.of_edge_list (text (fun _ -> 20)) in
      let same a b =
        match (a, b) with
        | Ok g, Ok g' -> Graph.equal g g'
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      (if faulty then Result.is_error expected
       else same expected (Ok (Graph.of_edges ~n edges)))
      && same expected (Io.of_edge_list tested)
      && same expected (with_edge_file tested Io.of_edge_list_file))

let graph6_truncated () =
  let g = Gen.random_tree (Rng.make 5) 30 in
  let s = Io.to_graph6 g in
  (* every strict prefix must be a typed error, never an exception *)
  for k = 0 to String.length s - 1 do
    match Io.of_graph6 (String.sub s 0 k) with
    | Ok g' ->
        (* a prefix that still parses must at least not be our graph
           unless it is byte-identical *)
        if Graph.equal g g' then
          Alcotest.failf "truncated to %d bytes still parses to the graph" k
    | Error _ -> ()
  done;
  (* large-form header cut mid-size *)
  check "truncated 4-byte size rejected" true
    (Result.is_error (Io.of_graph6 "~"));
  check "truncated payload rejected" true
    (Result.is_error (Io.of_graph6 (String.sub s 0 (String.length s / 2))))

(* ------------------------------------------------------------------ *)
(* Certificate arenas                                                  *)

(* [intern_all] arena-packs arrays of at least 2^16 entries; the tests
   pad their payloads with empty certificates (which pass through
   untouched) to reach that path, and check that they did. *)
let arena_min = 1 lsl 16

let packed_of certs =
  let padded =
    Array.append certs
      (Array.make (arena_min - Array.length certs) Bitstring.empty)
  in
  let packs = (Cert_store.stats ()).Cert_store.arena_packs in
  let out = Cert_store.intern_all padded in
  check "arena used" true
    ((Cert_store.stats ()).Cert_store.arena_packs = packs + 1);
  Array.sub out 0 (Array.length certs)

let qcheck_arena_transparent =
  QCheck.Test.make ~name:"arena-packed intern_all is the identity"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let mk () =
        Bitstring.of_bools (List.init (Rng.int rng 200) (fun _ -> Rng.bool rng))
      in
      (* a pool with duplicates, so packing exercises its dedup *)
      let pool = Array.init 16 (fun _ -> mk ()) in
      let certs =
        Array.init 200 (fun _ ->
            if Rng.bool rng then pool.(Rng.int rng 16) else mk ())
      in
      let packed = packed_of certs in
      Array.length packed = Array.length certs
      && Array.for_all2
           (fun c p ->
             Bitstring.equal c p
             && Bitstring.length c = Bitstring.length p
             && Bitstring.hash c = Bitstring.hash p
             && Bitstring.to_string c = Bitstring.to_string p)
           certs packed
      && (* equal nonempty inputs share one arena slot (empties pass
            through untouched) *)
      (let ok = ref true in
       Array.iteri
         (fun i c ->
           Array.iteri
             (fun j p ->
               if
                 i < j
                 && Bitstring.length c > 0
                 && Bitstring.equal c certs.(j)
                 && not (packed.(i) == p)
               then ok := false)
             packed)
         certs;
       !ok))

(* Operations on arena views (byte offset ≠ 0) agree with the same
   operations on their privately-buffered originals. *)
let arena_views_behave () =
  let rng = Rng.make 42 in
  let certs =
    Array.init 64 (fun _ ->
        Bitstring.of_bools
          (List.init (1 + Rng.int rng 90) (fun _ -> Rng.bool rng)))
  in
  let packed = packed_of certs in
  Array.iteri
    (fun i c ->
      let p = packed.(i) in
      let len = Bitstring.length c in
      check "to_bools" true (Bitstring.to_bools c = Bitstring.to_bools p);
      check "append" true
        (Bitstring.equal (Bitstring.append c c) (Bitstring.append p p));
      check "xor zero" true
        (Bitstring.length (Bitstring.xor c p) = len);
      if len > 1 then begin
        let pos = Rng.int rng len in
        let sub_len = Rng.int rng (len - pos) in
        check "sub" true
          (Bitstring.equal
             (Bitstring.sub c ~pos ~len:sub_len)
             (Bitstring.sub p ~pos ~len:sub_len));
        let b = Rng.int rng len in
        check "flip" true
          (Bitstring.equal (Bitstring.flip c b) (Bitstring.flip p b));
        check "compare" true (Bitstring.compare c p = 0)
      end)
    certs

(* intern_all packs arrays at the threshold into the arena (deduping
   there) and leaves arrays one below it in place — both observably
   the identity. *)
let intern_all_threshold () =
  Cert_store.reset ();
  let certs n =
    Array.init n (fun i ->
        Bitstring.of_string (if i mod 2 = 0 then "1010" else "0101"))
  in
  let big = certs arena_min in
  let out = Cert_store.intern_all big in
  let s = Cert_store.stats () in
  check "arena used" true (s.Cert_store.arena_packs = 1);
  check "dedup in arena" true (s.Cert_store.arena_certs = 2);
  check "arena bytes" true (s.Cert_store.arena_bytes = 2);
  check "identity" true (Array.for_all2 Bitstring.equal big out);
  let small = certs (arena_min - 1) in
  let out = Cert_store.intern_all small in
  check "below the threshold stays out of the arena" true
    ((Cert_store.stats ()).Cert_store.arena_packs = 1);
  check "first occurrences kept in place" true
    (out.(0) == small.(0) && out.(1) == small.(1) && out.(2) == small.(0));
  check "identity below" true (Array.for_all2 Bitstring.equal small out);
  Cert_store.reset ()

let suite =
  [
    ( "csr-differential",
      [
        QCheck_alcotest.to_alcotest qcheck_csr_vs_reference;
        QCheck_alcotest.to_alcotest qcheck_csr_invariants;
        QCheck_alcotest.to_alcotest qcheck_row_sort_vs_array_sort;
        QCheck_alcotest.to_alcotest qcheck_bfs_vs_reference;
        Alcotest.test_case "neighbors is fresh" `Quick neighbors_freshness;
        Alcotest.test_case "of_iter rejects diverging iterators" `Quick
          of_iter_rejects_diverging_iterator;
      ] );
    ( "csr-streaming",
      [
        QCheck_alcotest.to_alcotest qcheck_edge_list_stream_equals_of_edges;
        Alcotest.test_case "malformed edge lists rejected" `Quick
          edge_list_malformed;
        Alcotest.test_case "file reader across chunk boundaries" `Quick
          edge_list_chunk_boundaries;
        QCheck_alcotest.to_alcotest qcheck_scanner_fast_path;
        Alcotest.test_case "truncated graph6 rejected" `Quick graph6_truncated;
      ] );
    ( "cert-arena",
      [
        QCheck_alcotest.to_alcotest qcheck_arena_transparent;
        Alcotest.test_case "views behave like originals" `Quick
          arena_views_behave;
        Alcotest.test_case "intern_all threshold routing" `Quick
          intern_all_threshold;
      ] );
  ]

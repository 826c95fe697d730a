(* Tests for the util library: bit strings, codecs, RNG, combinatorics. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bitstring_roundtrip () =
  let b = Bitstring.of_string "0110010111" in
  check_int "length" 10 (Bitstring.length b);
  Alcotest.(check string) "to_string" "0110010111" (Bitstring.to_string b);
  check "get 0" true (not (Bitstring.get b 0));
  check "get 1" true (Bitstring.get b 1);
  check "equal self" true (Bitstring.equal b b);
  let b' = Bitstring.flip b 0 in
  check "flip differs" true (not (Bitstring.equal b b'));
  check "flip twice restores" true (Bitstring.equal b (Bitstring.flip b' 0))

let bitstring_append_sub () =
  let a = Bitstring.of_string "101" and b = Bitstring.of_string "0011" in
  let ab = Bitstring.append a b in
  Alcotest.(check string) "append" "1010011" (Bitstring.to_string ab);
  Alcotest.(check string) "sub" "0011"
    (Bitstring.to_string (Bitstring.sub ab ~pos:3 ~len:4))

let bitstring_compare_hash () =
  let a = Bitstring.of_string "101" and b = Bitstring.of_string "101" in
  check_int "compare equal" 0 (Bitstring.compare a b);
  check_int "hash equal" (Bitstring.hash a) (Bitstring.hash b);
  check "compare length-sensitive" true
    (Bitstring.compare (Bitstring.of_string "1") (Bitstring.of_string "10") <> 0)

let writer_fixed_roundtrip () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.fixed w ~width:7 93;
  Bitbuf.Writer.fixed w ~width:1 1;
  Bitbuf.Writer.fixed w ~width:12 0;
  let b = Bitbuf.Writer.contents w in
  check_int "total bits" 20 (Bitstring.length b);
  let r = Bitbuf.Reader.of_bitstring b in
  check_int "first" 93 (Bitbuf.Reader.fixed r ~width:7);
  check_int "second" 1 (Bitbuf.Reader.fixed r ~width:1);
  check_int "third" 0 (Bitbuf.Reader.fixed r ~width:12);
  Bitbuf.Reader.expect_end r

let nat_roundtrip () =
  let values = [ 0; 1; 2; 3; 7; 8; 100; 1023; 1024; 123456789 ] in
  let w = Bitbuf.Writer.create () in
  List.iter (Bitbuf.Writer.nat w) values;
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  List.iter (fun v -> check_int "nat" v (Bitbuf.Reader.nat r)) values;
  Bitbuf.Reader.expect_end r

let int_roundtrip () =
  let values = [ 0; -1; 1; -100; 100; max_int / 4; -(max_int / 4) ] in
  let w = Bitbuf.Writer.create () in
  List.iter (Bitbuf.Writer.int w) values;
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  List.iter (fun v -> check_int "int" v (Bitbuf.Reader.int r)) values

let list_and_bitstring_roundtrip () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.list w Bitbuf.Writer.nat [ 4; 0; 17 ];
  Bitbuf.Writer.bitstring w (Bitstring.of_string "1101");
  let r = Bitbuf.Reader.of_bitstring (Bitbuf.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 4; 0; 17 ] (Bitbuf.Reader.list r Bitbuf.Reader.nat);
  Alcotest.(check string) "bitstring" "1101"
    (Bitstring.to_string (Bitbuf.Reader.bitstring r))

let truncated_input_rejected () =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 1000;
  let b = Bitbuf.Writer.contents w in
  let half = Bitstring.sub b ~pos:0 ~len:(Bitstring.length b / 2) in
  check "decode None on truncation" true
    (Bitbuf.decode half Bitbuf.Reader.nat = None);
  (* trailing bits also rejected *)
  let padded = Bitstring.append b (Bitstring.of_string "0") in
  check "decode None on padding" true
    (Bitbuf.decode padded Bitbuf.Reader.nat = None)

let nat_gamma_size () =
  (* Elias gamma of n+1 uses 2·⌊log₂(n+1)⌋ + 1 bits *)
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 0;
  check_int "nat 0 is 1 bit" 1 (Bitbuf.Writer.length w);
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 7;
  check_int "nat 7 is 7 bits" 7 (Bitbuf.Writer.length w)

let rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.make 43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  check "different seed differs" true (xs <> zs)

let rng_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let v = Rng.int_in rng 5 9 in
    check "int_in range" true (v >= 5 && v <= 9)
  done

let rng_permutation () =
  let rng = Rng.make 11 in
  let p = Rng.permutation rng 30 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 30 Fun.id) sorted

(* Regression for the modulo-bias bug: [Rng.int] used plain
   [v mod bound], which for bounds not dividing 2^62 gives the low
   residues one extra preimage.  The rejection loop is exercised
   directly with a fake draw stream: for bound 3, 2^62 mod 3 = 1, so
   the single draw 2^62 - 1 (residue 0 in the incomplete top block)
   must be rejected and the next draw used instead. *)
let rng_rejection_boundary () =
  let feed draws =
    let q = Queue.of_seq (List.to_seq draws) in
    fun () -> Queue.pop q
  in
  (* 2^62 mod 3 = 1: only the top draw 2^62 - 1 is incomplete *)
  check_int "top-block draw rejected" 2
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1; 5 ]) 3);
  check_int "last complete draw accepted" 2
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 2 ]) 3);
  check_int "draw below the block accepted" 0
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 4 ]) 3);
  (* bound 1 accepts any draw as 0, even the maximum *)
  check_int "bound 1" 0 (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1 ]) 1);
  (* a power-of-two bound divides 2^62: nothing is ever rejected *)
  check_int "power-of-two bound accepts max" 3
    (Rng.unbiased_mod ~draw:(feed [ (1 lsl 62) - 1 ]) 4);
  match Rng.unbiased_mod ~draw:(feed []) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted"

(* Small-bound uniformity: with rejection sampling every residue class
   is hit exactly-uniformly in expectation; a chi-square statistic over
   20k draws at bound 7 sits far below the df=6 rejection threshold
   unless the generator is broken.  (The old biased code would still
   pass at these bounds — the real pin is the boundary test above —
   but this guards the rewrite against a botched residue computation.) *)
let rng_small_bound_distribution () =
  let bound = 7 and draws = 20_000 in
  let rng = Rng.make 1234 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  (* chi-square 99.9th percentile at 6 degrees of freedom is 22.46 *)
  check "chi-square within the df=6 99.9% bound" true (chi2 < 22.46)

(* Pinned streams: the exact outputs of every drawing function for a
   few seeds.  Traces, golden fixtures and seeded experiments all
   replay these streams, so a change to the generator's representation
   must leave every value here unchanged. *)
let rng_pinned_streams () =
  let ints = Alcotest.(list int) in
  let case seed ~ints:i ~big ~int_in ~floats ~bools ~bits ~shuffled ~kids
      ~after =
    let r = Rng.make seed in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.check ints (name "int") i (List.init 4 (fun _ -> Rng.int r 1000));
    check_int (name "int 2^40") big (Rng.int r (1 lsl 40));
    Alcotest.check ints (name "int_in") int_in
      (List.init 3 (fun _ -> Rng.int_in r (-5) 5));
    Alcotest.(check (list string))
      (name "float") floats
      (List.init 2 (fun _ -> Printf.sprintf "%h" (Rng.float r 1.0)));
    Alcotest.(check (list bool)) (name "bool") bools
      (List.init 6 (fun _ -> Rng.bool r));
    Alcotest.(check string) (name "bits") bits
      (Bitstring.to_string (Rng.bits r 20));
    let a = Array.init 8 Fun.id in
    Rng.shuffle r a;
    Alcotest.check ints (name "shuffle") shuffled (Array.to_list a);
    let children = Rng.split r 3 in
    Alcotest.check ints (name "split children") kids
      (Array.to_list (Array.map (fun k -> Rng.int k 1_000_000) children));
    check_int (name "parent after split") after (Rng.int r 1_000_000)
  in
  case 0 ~ints:[ 883; 925; 419; 611 ] ~big:389037038886
    ~int_in:[ 1; -2; -1 ]
    ~floats:[ "0x1.f72bc4820e4c4p-3"; "0x1.e77091186d196p-1" ]
    ~bools:[ true; false; true; true; true; true ]
    ~bits:"10001100110000110111" ~shuffled:[ 3; 4; 1; 2; 6; 5; 7; 0 ]
    ~kids:[ 474591; 606778; 994102 ] ~after:627755;
  case 7 ~ints:[ 621; 951; 336; 50 ] ~big:934600476790 ~int_in:[ 2; 3; 5 ]
    ~floats:[ "0x1.12f603d4ca83p-3"; "0x1.a70e89da21e54p-2" ]
    ~bools:[ true; false; false; false; false; false ]
    ~bits:"11101111010111000011" ~shuffled:[ 5; 7; 3; 0; 6; 1; 2; 4 ]
    ~kids:[ 407776; 752734; 245769 ] ~after:464451;
  case 42 ~ints:[ 853; 72; 964; 941 ] ~big:96788941052 ~int_in:[ 5; 2; 1 ]
    ~floats:[ "0x1.5c16e1dc2cf5ep-2"; "0x1.3ca9ae7052feep-1" ]
    ~bools:[ true; false; false; true; false; false ]
    ~bits:"11100111011111101011" ~shuffled:[ 3; 2; 5; 0; 6; 7; 1; 4 ]
    ~kids:[ 738193; 865481; 550639 ] ~after:127146;
  case (-3) ~ints:[ 383; 432; 127; 498 ] ~big:827186933655
    ~int_in:[ 4; 1; -2 ]
    ~floats:[ "0x1.3db5a89cd08b8p-2"; "0x1.5a9d1629bbb38p-2" ]
    ~bools:[ true; true; true; true; false; false ]
    ~bits:"01000011000011011111" ~shuffled:[ 1; 3; 6; 2; 0; 4; 5; 7 ]
    ~kids:[ 497080; 824933; 943810 ] ~after:594836

(* A draw allocates nothing: the state is updated in place and [int],
   [bool] and [chance] return immediates.  The old [mutable int64]
   state boxed a fresh word per step (and [float] a float per draw). *)
let rng_draws_do_not_allocate () =
  let r = Rng.make 5 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    hits := !hits + Rng.int r 1000;
    if Rng.bool r then incr hits;
    if Rng.chance r 0.5 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check "hits drawn" true (!hits > 0);
  check (Printf.sprintf "30000 draws allocated %.0f minor words" words) true
    (words < 100.)

let qcheck_rng_chance =
  QCheck.Test.make ~name:"Rng.chance r p = (Rng.float r' 1.0 < p) on twins"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (float_range (-0.5) 1.5))
    (fun (seed, p) ->
      let r = Rng.make seed and r' = Rng.make seed in
      let same = ref true in
      for _ = 1 to 16 do
        if Rng.chance r p <> (Rng.float r' 1.0 < p) then same := false
      done;
      (* both took the same steps: their next draws agree *)
      !same && Rng.int r (1 lsl 40) = Rng.int r' (1 lsl 40))

let combin_binomial () =
  check_int "C(5,2)" 10 (Combin.binomial 5 2);
  check_int "C(10,0)" 1 (Combin.binomial 10 0);
  check_int "C(10,10)" 1 (Combin.binomial 10 10);
  check_int "C(4,7)" 0 (Combin.binomial 4 7);
  check_int "C(20,10)" 184756 (Combin.binomial 20 10)

let combin_partitions () =
  check_int "p(0)" 1 (List.length (Combin.partitions 0));
  check_int "p(5)" 7 (List.length (Combin.partitions 5));
  check_int "p(10)" 42 (List.length (Combin.partitions 10));
  check_int "count matches enumeration" (List.length (Combin.partitions 12))
    (Combin.count_partitions 12);
  (* every partition sums to n with weakly decreasing parts *)
  List.iter
    (fun p ->
      check_int "sums to 8" 8 (List.fold_left ( + ) 0 p);
      let rec decreasing = function
        | a :: b :: rest -> a >= b && decreasing (b :: rest)
        | _ -> true
      in
      check "weakly decreasing" true (decreasing p))
    (Combin.partitions 8)

let combin_log2_factorial () =
  let lf = Combin.log2_factorial 10 in
  (* log2(3628800) ≈ 21.79 *)
  check "log2(10!)" true (abs_float (lf -. 21.791) < 0.01)

let combin_ceil_log2 () =
  check_int "1" 0 (Combin.ceil_log2 1);
  check_int "2" 1 (Combin.ceil_log2 2);
  check_int "3" 2 (Combin.ceil_log2 3);
  check_int "8" 3 (Combin.ceil_log2 8);
  check_int "9" 4 (Combin.ceil_log2 9)

let combin_pow_multisets () =
  check_int "pow" 243 (Combin.pow 3 5);
  check_int "multisets" 27 (Combin.multisets_upto 3 2);
  check_int "multisets saturates" max_int (Combin.multisets_upto 100 100)

let qcheck_bitbuf_nat =
  QCheck.Test.make ~name:"nat roundtrips for all naturals" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun n ->
      let w = Bitbuf.Writer.create () in
      Bitbuf.Writer.nat w n;
      Bitbuf.decode (Bitbuf.Writer.contents w) Bitbuf.Reader.nat = Some n)

let qcheck_bitbuf_fixed =
  QCheck.Test.make ~name:"fixed roundtrips at any width" ~count:500
    QCheck.(pair (int_bound 30) (int_bound 1_000_000))
    (fun (extra, n) ->
      let width = Combin.ceil_log2 (n + 2) + extra in
      let w = Bitbuf.Writer.create () in
      Bitbuf.Writer.fixed w ~width n;
      Bitbuf.decode (Bitbuf.Writer.contents w) (fun r ->
          Bitbuf.Reader.fixed r ~width)
      = Some n)

let qcheck_bitstring_flip =
  QCheck.Test.make ~name:"flip is an involution" ~count:200
    QCheck.(pair (list bool) small_nat)
    (fun (bits, i) ->
      QCheck.assume (bits <> []);
      let b = Bitstring.of_bools bits in
      let i = i mod Bitstring.length b in
      Bitstring.equal b (Bitstring.flip (Bitstring.flip b i) i))

(* Concat/slice identities that certificate packing (length-prefixed
   pair encodings, Bitbuf writers) relies on. *)
let qcheck_bitstring_append_sub =
  QCheck.Test.make ~name:"append/sub: slices recover both halves"
    ~count:1000
    QCheck.(pair (list bool) (list bool))
    (fun (xs, ys) ->
      let a = Bitstring.of_bools xs and b = Bitstring.of_bools ys in
      let ab = Bitstring.append a b in
      Bitstring.length ab = Bitstring.length a + Bitstring.length b
      && Bitstring.equal a
           (Bitstring.sub ab ~pos:0 ~len:(Bitstring.length a))
      && Bitstring.equal b
           (Bitstring.sub ab ~pos:(Bitstring.length a)
              ~len:(Bitstring.length b))
      && Bitstring.to_bools ab = xs @ ys)

let qcheck_bitstring_sub_compose =
  QCheck.Test.make ~name:"sub of sub composes offsets" ~count:1000
    QCheck.(quad (list bool) small_nat small_nat small_nat)
    (fun (bits, p1, l1, p2) ->
      let b = Bitstring.of_bools bits in
      let n = Bitstring.length b in
      let p1 = if n = 0 then 0 else p1 mod (n + 1) in
      let l1 = min l1 (n - p1) in
      let p2 = if l1 = 0 then 0 else p2 mod (l1 + 1) in
      let l2 = l1 - p2 in
      Bitstring.equal
        (Bitstring.sub (Bitstring.sub b ~pos:p1 ~len:l1) ~pos:p2 ~len:l2)
        (Bitstring.sub b ~pos:(p1 + p2) ~len:l2))

let qcheck_rng_split_reproducible =
  QCheck.Test.make ~name:"Rng.split: reproducible from the seed"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 32))
    (fun (seed, k) ->
      let draw rng = List.init 8 (fun _ -> Rng.int rng 1_000_000) in
      let a = Array.map draw (Rng.split (Rng.make seed) k) in
      let b = Array.map draw (Rng.split (Rng.make seed) k) in
      a = b)

let qcheck_rng_split_distinct =
  QCheck.Test.make ~name:"Rng.split: streams pairwise distinct"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 32))
    (fun (seed, k) ->
      let k = k + 2 in
      let streams = Rng.split (Rng.make seed) k in
      let firsts =
        Array.to_list
          (Array.map
             (fun r -> List.init 4 (fun _ -> Rng.int r (1 lsl 30)))
             streams)
      in
      List.length (List.sort_uniq compare firsts) = k)

let suite =
  [
    ( "util:bitstring",
      [
        Alcotest.test_case "roundtrip" `Quick bitstring_roundtrip;
        Alcotest.test_case "append/sub" `Quick bitstring_append_sub;
        Alcotest.test_case "compare/hash" `Quick bitstring_compare_hash;
        QCheck_alcotest.to_alcotest qcheck_bitstring_flip;
        QCheck_alcotest.to_alcotest qcheck_bitstring_append_sub;
        QCheck_alcotest.to_alcotest qcheck_bitstring_sub_compose;
      ] );
    ( "util:bitbuf",
      [
        Alcotest.test_case "fixed" `Quick writer_fixed_roundtrip;
        Alcotest.test_case "nat" `Quick nat_roundtrip;
        Alcotest.test_case "int" `Quick int_roundtrip;
        Alcotest.test_case "list+bitstring" `Quick list_and_bitstring_roundtrip;
        Alcotest.test_case "truncation rejected" `Quick truncated_input_rejected;
        Alcotest.test_case "gamma size" `Quick nat_gamma_size;
        QCheck_alcotest.to_alcotest qcheck_bitbuf_nat;
        QCheck_alcotest.to_alcotest qcheck_bitbuf_fixed;
      ] );
    ( "util:rng",
      [
        Alcotest.test_case "determinism" `Quick rng_determinism;
        Alcotest.test_case "bounds" `Quick rng_bounds;
        Alcotest.test_case "permutation" `Quick rng_permutation;
        Alcotest.test_case "rejection boundary" `Quick rng_rejection_boundary;
        Alcotest.test_case "pinned streams" `Quick rng_pinned_streams;
        Alcotest.test_case "draws do not allocate" `Quick
          rng_draws_do_not_allocate;
        QCheck_alcotest.to_alcotest qcheck_rng_chance;
        Alcotest.test_case "small-bound distribution" `Quick
          rng_small_bound_distribution;
        QCheck_alcotest.to_alcotest qcheck_rng_split_reproducible;
        QCheck_alcotest.to_alcotest qcheck_rng_split_distinct;
      ] );
    ( "util:combin",
      [
        Alcotest.test_case "binomial" `Quick combin_binomial;
        Alcotest.test_case "partitions" `Quick combin_partitions;
        Alcotest.test_case "log2 factorial" `Quick combin_log2_factorial;
        Alcotest.test_case "ceil_log2" `Quick combin_ceil_log2;
        Alcotest.test_case "pow and multisets" `Quick combin_pow_multisets;
      ] );
  ]

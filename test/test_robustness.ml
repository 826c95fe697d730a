(* Cross-cutting robustness: every verifier in the library must treat
   arbitrary adversarial bit strings as ordinary rejections — no
   exception may escape, whatever the bits say.  Plus targeted
   rejection-reason tests for the ancestor-list machinery. *)

let check = Alcotest.(check bool)

let all_schemes =
  lazy
    [
      Spanning_tree.scheme ();
      Spanning_tree.acyclicity;
      Spanning_tree.vertex_count ~expected:(fun n -> n = 6) "n=6";
      Tree_mso.make Library.has_perfect_matching.Library.auto;
      Tree_mso.make (Library.diameter_at_most 2).Library.auto;
      Tree_mso.make_table Localcert_automata.Uop.has_perfect_matching;
      Treedepth_cert.make ~t:3 ();
      Kernel_mso.make ~t:3 (Parser.parse_exn "forall x. exists y. x -- y");
      Existential_fo.make (Parser.parse_exn "exists x. exists y. x -- y");
      Depth2_fo.is_clique;
      Depth2_fo.has_dominating_vertex;
      Minor_free.path_minor_free ~t:4;
      Universal.make ~name:"tri-free" Props.triangle_free.Props.check;
      Lcl.scheme_of_labeled (Lcl.proper_coloring ~colors:3);
      Lcl.scheme_of_search Lcl.maximal_independent_set
        ~solve:(fun g -> Some (Lcl.greedy_mis g));
    ]

let fuzz_instances =
  lazy [ Instance.make (Gen.path 6); Instance.make (Gen.cycle 6);
         Instance.make (Gen.star 6) ]

let verifiers_never_throw () =
  let rng = Rng.make 424242 in
  List.iter
    (fun scheme ->
      List.iter
        (fun instance ->
          for _ = 1 to 120 do
            let certs =
              Array.init (Instance.n instance) (fun _ ->
                  Rng.bits rng (Rng.int rng 80))
            in
            match Scheme.run scheme instance certs with
            | (_ : Scheme.outcome) -> ()
            | exception e ->
                Alcotest.failf "%s threw %s on fuzz input" scheme.Scheme.name
                  (Printexc.to_string e)
          done)
        (Lazy.force fuzz_instances))
    (Lazy.force all_schemes)

let verifiers_never_throw_on_spliced_certs () =
  (* valid certificates of scheme A fed to scheme B's verifier *)
  let instance = Instance.make (Gen.path 6) in
  let schemes = Lazy.force all_schemes in
  List.iter
    (fun a ->
      match a.Scheme.prover instance with
      | None -> ()
      | Some certs ->
          List.iter
            (fun b ->
              match Scheme.run b instance certs with
              | (_ : Scheme.outcome) -> ()
              | exception e ->
                  Alcotest.failf "%s threw on %s's certificates: %s"
                    b.Scheme.name a.Scheme.name (Printexc.to_string e))
            schemes)
    schemes

let empty_certificates_handled () =
  List.iter
    (fun scheme ->
      List.iter
        (fun instance ->
          let certs = Array.make (Instance.n instance) Bitstring.empty in
          match Scheme.run scheme instance certs with
          | (_ : Scheme.outcome) -> ()
          | exception e ->
              Alcotest.failf "%s threw on empty certs: %s" scheme.Scheme.name
                (Printexc.to_string e))
        (Lazy.force fuzz_instances))
    (Lazy.force all_schemes)

(* --- targeted ancestor-list rejections --- *)

let td_view instance certs v = Scheme.view_of instance certs v

let anclist_rejections () =
  (* start from a valid treedepth certification of C8 and check the
     verifier pinpoints specific corruptions *)
  let g = Gen.cycle 8 in
  let instance = Instance.make g in
  let scheme = Treedepth_cert.make ~t:4 () in
  let certs = Option.get (scheme.Scheme.prover instance) in
  let expect_reason certs v fragment =
    match Scheme.verify scheme (td_view instance certs v) with
    | Scheme.Accept -> Alcotest.failf "expected a rejection at %d" v
    | Scheme.Reject reason ->
        check
          (Printf.sprintf "reason %S contains %S" reason fragment)
          true
          (let len = String.length fragment in
           let rec scan i =
             i + len <= String.length reason
             && (String.sub reason i len = fragment || scan (i + 1))
           in
           scan 0)
  in
  (* truncate a certificate: malformed *)
  let c = Array.copy certs in
  c.(3) <- Bitstring.sub c.(3) ~pos:0 ~len:(Bitstring.length c.(3) / 2);
  expect_reason c 3 "malformed";
  (* depth bound: run the t=3 verifier on t=4 certificates of a
     treedepth-4 graph — the depth check fires at the deepest vertices *)
  let t3 = Treedepth_cert.make ~t:3 () in
  let deepest =
    (* some vertex carries a depth-4 list *)
    List.find
      (fun v ->
        match Scheme.verify t3 (td_view instance certs v) with
        | Scheme.Reject r -> r = "depth exceeds bound"
        | Scheme.Accept -> false)
      (Graph.vertices g)
  in
  check "depth bound fires somewhere" true (deepest >= 0)

let anclist_codec_edges () =
  (* decode rejects lists with zero depth and oversized depth claims *)
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 0;
  check "zero-depth rejected" true
    (Anclist.decode ~id_bits:4 Anclist.unit_codec (Bitbuf.Writer.contents w)
    = None);
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.nat w 5000;
  check "huge depth rejected" true
    (Anclist.decode ~id_bits:4 Anclist.unit_codec (Bitbuf.Writer.contents w)
    = None);
  (* roundtrip a crafted list *)
  let entries =
    [
      {
        Anclist.aid = 7;
        ann = ();
        tree = Some { Anclist.exit_id = 3; dist = 2; parent_id = 5 };
      };
      { Anclist.aid = 5; ann = (); tree = None };
    ]
  in
  let bits = Anclist.encode ~id_bits:4 Anclist.unit_codec entries in
  check "roundtrip" true
    (Anclist.decode ~id_bits:4 Anclist.unit_codec bits = Some entries)

let kernel_rejection_reasons () =
  (* kernel scheme: corrupting the broadcast kernel is reported as a
     disagreement or malformation, never an exception *)
  let phi = Parser.parse_exn "forall x. exists y. x -- y" in
  let scheme = Kernel_mso.make ~t:2 phi in
  let instance = Instance.make (Gen.star 7) in
  let certs = Option.get (scheme.Scheme.prover instance) in
  let c = Array.copy certs in
  (* flip a late bit (inside the kernel description) of one vertex *)
  let len = Bitstring.length c.(2) in
  c.(2) <- Bitstring.flip c.(2) (len - 2);
  let outcome = Scheme.run scheme instance c in
  check "kernel corruption rejected" false outcome.Scheme.accepted

let suite =
  [
    ( "robustness",
      [
        Alcotest.test_case "fuzz: verifiers never throw" `Quick
          verifiers_never_throw;
        Alcotest.test_case "spliced certificates" `Quick
          verifiers_never_throw_on_spliced_certs;
        Alcotest.test_case "empty certificates" `Quick empty_certificates_handled;
        Alcotest.test_case "anclist rejection reasons" `Quick anclist_rejections;
        Alcotest.test_case "anclist codec edges" `Quick anclist_codec_edges;
        Alcotest.test_case "kernel rejection" `Quick kernel_rejection_reasons;
      ] );
  ]

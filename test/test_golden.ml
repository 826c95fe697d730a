(* Golden runtime traces.

   The fixtures under golden/ were rendered by the list-inbox runtime
   that preceded the message plane: for each case, <name>.json holds
   [Trace.to_json] and <name>.txt holds [Trace.pp_summary].  Any change
   to the exchange, the trace representation or the verify sweep must
   reproduce them byte for byte, at one and two jobs, with the
   incremental verdict cache on and off.  Together the cases cover
   every event kind the trace can carry. *)

type case = {
  name : string;
  graph : string;
  scheme : unit -> Scheme.t;
  plan : string;
  rounds : int;
  seed : int;
  recover : bool;
}

let mis () =
  Lcl.scheme_of_search Lcl.maximal_independent_set ~solve:(fun g ->
      Some (Lcl.greedy_mis g))

let cases =
  [
    (* wire faults, Byzantine forging, on a graph with cycles *)
    {
      name = "wire";
      graph = "grid:6:8";
      scheme = Spanning_tree.scheme;
      plan = "drop:0.05,flip:0.05,byz:0.05";
      rounds = 3;
      seed = 5;
      recover = false;
    };
    (* state faults: rate crashes, a deterministic crash list, stored
       corruption *)
    {
      name = "state";
      graph = "random-tree:40:2";
      scheme = Spanning_tree.scheme;
      plan = "crash:0.03,crashed:3+7,corrupt:0.05";
      rounds = 4;
      seed = 11;
      recover = false;
    };
    (* topology churn with self-healing *)
    {
      name = "churn";
      graph = "random-tree:48:1";
      scheme = mis;
      plan = "deledge:0.05,addedge:0.05,corrupt:0.05,until:3";
      rounds = 6;
      seed = 7;
      recover = true;
    };
  ]

let render ~pool ~incremental c =
  let inst = Instance.make (Result.get_ok (Spec.parse c.graph)) in
  let scheme = c.scheme () in
  let certs = Option.get (scheme.Scheme.prover inst) in
  let plan = Result.get_ok (Fault.of_spec c.plan) in
  let r =
    Runtime.execute ~pool ~plan ~rounds:c.rounds ~seed:c.seed ~incremental
      ~recover:c.recover scheme inst certs
  in
  ( Trace.to_json r.Runtime.trace,
    Format.asprintf "%a" Trace.pp_summary r.Runtime.trace )

let read path = In_channel.with_open_bin path In_channel.input_all
let fixture c ext = read (Filename.concat "golden" (c.name ^ ext))

let test_golden () =
  let pools = [ Pool.create ~jobs:1 (); Pool.create ~jobs:2 () ] in
  Fun.protect
    ~finally:(fun () -> List.iter Pool.shutdown pools)
    (fun () ->
      List.iter
        (fun c ->
          let json = fixture c ".json" and summary = fixture c ".txt" in
          List.iter
            (fun pool ->
              List.iter
                (fun incremental ->
                  let what =
                    Printf.sprintf "%s (jobs %d, incremental %b)" c.name
                      (Pool.size pool) incremental
                  in
                  let j, s = render ~pool ~incremental c in
                  Alcotest.(check string) (what ^ ": trace JSON") json j;
                  Alcotest.(check string) (what ^ ": summary") summary s)
                [ true; false ])
            pools)
        cases)

(* The fixtures must keep exercising every event kind, or a
   representation change could slip through on an uncovered one. *)
let test_coverage () =
  let all = String.concat "" (List.map (fun c -> fixture c ".json") cases) in
  let contains sub =
    let n = String.length all and k = String.length sub in
    let rec go i = i + k <= n && (String.sub all i k = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        ("fixtures contain a " ^ ty ^ " event")
        true
        (contains (Printf.sprintf "{\"type\":%S" ty)))
    [
      "crash"; "byzantine"; "corrupt"; "send"; "drop"; "flip"; "forge";
      "edge_add"; "edge_del"; "recover"; "verdict";
    ]

let suite =
  [
    ( "runtime-golden",
      [
        Alcotest.test_case "traces match the fixtures at every jobs/mode"
          `Quick test_golden;
        Alcotest.test_case "fixtures cover every event kind" `Quick
          test_coverage;
      ] );
  ]

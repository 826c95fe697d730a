(* Textual graph specifications, shared by the CLI's --graph option and
   the wire protocol's instance references.

   Only pure, deterministic constructors live here: a spec names a
   generator and its parameters, so the same string builds the same
   graph in the CLI, in the server and in a differential test.  The
   CLI-only `file:PATH` form (which reads the local filesystem) stays
   in bin/ — a network request must not be able to name server-side
   paths. *)

let int_field name s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: expected an integer, got %S" name s)

let parse ?max_vertices ?max_edges spec =
  let fail msg = Error msg in
  (* Size checks run on the spec's *parameters*, before a generator
     allocates anything: a short string can name an enormous graph
     (clique:100000 is ~5e9 edges, edges:0-9999999999 a 10^10-slot
     array), and a capped consumer — the server admits specs from the
     network — must refuse it at the cap, not fall over building it.
     Estimates are computed in floats so cbt:500 cannot overflow. *)
  let check ~n ~m =
    (match max_vertices with
    | Some cap when n > float_of_int cap ->
        failwith
          (Printf.sprintf "graph spec names ~%.0f vertices; the cap here is %d"
             n cap)
    | _ -> ());
    match max_edges with
    | Some cap when m > float_of_int cap ->
        failwith
          (Printf.sprintf "graph spec names ~%.0f edges; the cap here is %d" m
             cap)
    | _ -> ()
  in
  let fi = float_of_int in
  (* Gen.star and Gen.cycle refuse degenerate sizes themselves; path and
     clique would build the empty graph, which no instance accepts. *)
  let nonempty name n =
    if n < 1 then failwith (name ^ ": need n >= 1");
    n
  in
  let sized ~n ~m g =
    check ~n ~m;
    g ()
  in
  match
    match String.split_on_char ':' spec with
    | [ "path"; n ] ->
        let n = nonempty "path" (int_field "path" n) in
        sized ~n:(fi n) ~m:(fi n) (fun () -> Gen.path n)
    | [ "cycle"; n ] ->
        let n = int_field "cycle" n in
        sized ~n:(fi n) ~m:(fi n) (fun () -> Gen.cycle n)
    | [ "star"; n ] ->
        let n = int_field "star" n in
        sized ~n:(fi n) ~m:(fi n) (fun () -> Gen.star n)
    | [ "clique"; n ] ->
        let n = nonempty "clique" (int_field "clique" n) in
        sized ~n:(fi n)
          ~m:(fi n *. (fi n -. 1.) /. 2.)
          (fun () -> Gen.clique n)
    | [ "cbt"; h ] ->
        let h = int_field "cbt" h in
        let n = if h < 0 then 0. else (2. ** fi (h + 1)) -. 1. in
        sized ~n ~m:n (fun () -> Gen.complete_binary_tree h)
    | [ "caterpillar"; s; l ] ->
        let s = int_field "spine" s and l = int_field "legs" l in
        let n = fi s *. (fi l +. 1.) in
        sized ~n ~m:n (fun () -> Gen.caterpillar ~spine:s ~legs:l)
    | [ "spider"; l; len ] ->
        let l = int_field "legs" l and len = int_field "leg-len" len in
        let n = 1. +. (fi l *. fi len) in
        sized ~n ~m:n (fun () -> Gen.spider ~legs:l ~leg_len:len)
    | [ "grid"; r; c ] ->
        let r = int_field "rows" r and c = int_field "cols" c in
        sized ~n:(fi r *. fi c)
          ~m:(2. *. fi r *. fi c)
          (fun () -> Gen.grid r c)
    | [ "random-tree"; n; seed ] ->
        let n = int_field "n" n and seed = int_field "seed" seed in
        sized ~n:(fi n) ~m:(fi n) (fun () ->
            Gen.random_tree (Localcert_util.Rng.make seed) n)
    | [ "random-btd"; n; d; seed ] ->
        let n = int_field "n" n
        and d = int_field "depth" d
        and seed = int_field "seed" seed in
        sized ~n:(fi n)
          ~m:(fi n *. fi (max 1 d))
          (fun () ->
            Gen.random_bounded_treedepth
              (Localcert_util.Rng.make seed)
              ~n ~depth:d ~p:0.5)
    | "g6" :: rest -> (
        (* the input's length already bounds the build cost; the built
           graph is still held to the caps *)
        match Io.of_graph6 (String.concat ":" rest) with
        | Ok g ->
            check ~n:(fi (Graph.n g)) ~m:(fi (Graph.m g));
            g
        | Error e -> failwith e)
    | [ "edges"; es ] ->
        let pairs =
          String.split_on_char ',' es
          |> List.map (fun e ->
                 match String.split_on_char '-' e with
                 | [ a; b ] -> (int_field "edge" a, int_field "edge" b)
                 | _ -> failwith "bad edge list; expected edges:0-1,1-2,...")
        in
        if pairs = [] then failwith "empty edge list";
        let n =
          1 + List.fold_left (fun acc (a, b) -> max acc (max a b)) 0 pairs
        in
        (* one huge endpoint means an n-slot adjacency allocation *)
        check ~n:(fi n) ~m:(fi (List.length pairs));
        Graph.of_edges ~n pairs
    | _ -> failwith (Printf.sprintf "unknown graph spec %S" spec)
  with
  | g -> Ok g
  | exception Failure msg -> fail msg
  | exception Invalid_argument msg -> fail msg

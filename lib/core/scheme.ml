type view = {
  me : int;
  id_bits : int;
  label : int;
  cert : Bitstring.t;
  nbrs : (int * Bitstring.t) list;
}

type verdict = Accept | Reject of string

(* A lowering splits a radius-1 verifier into a total per-certificate
   decode stage and a check stage over pre-decoded values; every
   scheme's verifier is one.  The interpreted oracle [verify] decodes
   every view from scratch; the compiled engine path
   (Localcert_engine.Vcompile) decodes each certificate once, ahead of
   the sweep, and a row reads a neighbor's value through [src].
   Because both paths end in the same check, they agree on every
   verdict — reason strings included — by construction. *)
type 'dec lowering = {
  decode : id_bits:int -> Bitstring.t -> 'dec;
  check :
    id_bits:int ->
    me:int ->
    label:int ->
    'dec ->
    ids:int array ->
    src:int array ->
    decs:'dec array ->
    lo:int ->
    hi:int ->
    verdict;
  flat : flat option;
}

(* A flat plane lets the compiled engine replace the boxed [decs]
   array with a struct-of-arrays int plane: slot [i]'s fields live at
   [i * width].  Boxed decoded records are placed by the major-heap
   allocator's size-class free lists, so at 10⁶+ vertices each
   neighbor dereference is a cache miss on any graph whose adjacency
   is not id-local; an int plane is one contiguous unboxed array and
   the same row walk streams it sequentially.  A plane lowering has
   one decoded form, its row: [read] decodes a certificate straight
   into a row at an offset, and one check, [check_flat]: the boxed
   [decode] and [check] that [flat_lowering] derives allocate a row
   and copy rows into a scratch plane, so there is no second copy of
   either to keep in step. *)
and flat = {
  width : int;
  read : id_bits:int -> Bitstring.t -> int array -> int -> unit;
  check_flat :
    id_bits:int ->
    me:int ->
    label:int ->
    mine:int array ->
    mbase:int ->
    ids:int array ->
    plane:int array ->
    lo:int ->
    hi:int ->
    verdict;
}

type compiled = Compiled : 'dec lowering -> compiled

(* A scheme's instruments, each resolved on first use: the sweep and
   prepare paths then build no ["scheme." ^ name] string and take no
   registry lock per call, and an instrument never used stays out of
   the snapshot. *)
type telemetry = {
  accept : unit -> Metrics.counter;
  reject : unit -> Metrics.counter;
  rejections : unit -> Metrics.counter;
  cert_bits : unit -> Metrics.histogram;
  certify_timer : unit -> Metrics.timer;
}

type t = {
  name : string;
  prover : Instance.t -> Bitstring.t array option;
  lowering : compiled;
  telemetry : telemetry;
}

(* The [src] of 0-based slices: shared, only replaced by longer ones. *)
let identity = Atomic.make (Array.init 64 Fun.id)
let identity_src n =
  let a = Atomic.get identity in
  if n <= Array.length a then a
  else
    let a = Array.init (max n (2 * Array.length a)) Fun.id in
    Atomic.set identity a;
    a

let verify { lowering = Compiled l; _ } (view : view) =
  let id_bits = view.id_bits in
  let mine = l.decode ~id_bits view.cert in
  let ids = Array.of_list (List.map fst view.nbrs) in
  let decs =
    Array.of_list (List.map (fun (_, c) -> l.decode ~id_bits c) view.nbrs)
  in
  l.check ~id_bits ~me:view.me ~label:view.label mine ~ids
    ~src:(identity_src (Array.length ids)) ~decs ~lo:0 ~hi:(Array.length ids)

let telemetry_of name =
  let counter suffix =
    Once.make (fun () -> Metrics.counter ("scheme." ^ name ^ suffix))
  in
  {
    accept = counter ".accept";
    reject = counter ".reject";
    rejections = counter ".rejections";
    cert_bits =
      Once.make (fun () -> Metrics.histogram ("scheme." ^ name ^ ".cert_bits"));
    certify_timer = Once.make (fun () -> Metrics.timer ("certify." ^ name));
  }

let of_lowering ~name ~prover l =
  { name; prover; lowering = Compiled l; telemetry = telemetry_of name }

(* The boxed value is the row itself.  The boxed check copies each
   neighbor's row into one scratch plane (slot [i] at [i * width]) and
   runs the plane check on it with the vertex's own row as [mine].  A
   fresh plane per call keeps it reentrant across domains and nested
   sub-checks. *)
let flat_lowering flat =
  let w = flat.width in
  let decode ~id_bits c =
    let row = Array.make w 0 in
    flat.read ~id_bits c row 0;
    row
  in
  let check ~id_bits ~me ~label mine ~ids ~src ~decs ~lo ~hi =
    let deg = hi - lo in
    let plane = Array.make (deg * w) 0 in
    for i = 0 to deg - 1 do
      Array.blit decs.(src.(lo + i)) 0 plane (i * w) w
    done;
    let ids = if lo = 0 then ids else Array.sub ids lo deg in
    flat.check_flat ~id_bits ~me ~label ~mine ~mbase:0 ~ids ~plane ~lo:0
      ~hi:deg
  in
  { decode; check; flat = Some flat }

let decoded_neighbors ~ids ~src ~decs ~lo ~hi =
  let rec go i acc =
    if i < lo then Some acc
    else
      match decs.(src.(i)) with
      | None -> None
      | Some d -> go (i - 1) ((ids.(i), d) :: acc)
  in
  go (hi - 1) []

type outcome = {
  accepted : bool;
  rejections : (int * string) list;
  max_bits : int;
}

let view_of (inst : Instance.t) certs v =
  let nbrs =
    Graph.fold_neighbors inst.Instance.graph v
      (fun acc w -> (inst.Instance.ids.(w), certs.(w)) :: acc)
      []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    me = inst.Instance.ids.(v);
    id_bits = inst.Instance.id_bits;
    label = inst.Instance.labels.(v);
    cert = certs.(v);
    nbrs;
  }

(* An int comparison, not [Stdlib.max]: the polymorphic [max] is a
   [caml_compare] call per certificate without flambda. *)
let max_cert_bits certs =
  let m = ref 0 in
  for i = 0 to Array.length certs - 1 do
    let len = Bitstring.length (Array.unsafe_get certs i) in
    if len > !m then m := len
  done;
  !m

(* Telemetry for a completed exhaustive sweep.  Accept/reject is a
   property of the outcome, so for exhaustive sweeps the counters are
   deterministic under any scheduling. *)
let record_outcome scheme outcome =
  if Metrics.is_enabled () then begin
    let m = scheme.telemetry in
    Metrics.incr (if outcome.accepted then m.accept () else m.reject ());
    Metrics.add (m.rejections ()) (List.length outcome.rejections)
  end

let record_cert_sizes scheme certs =
  if Metrics.is_enabled () then begin
    let h = scheme.telemetry.cert_bits () in
    Array.iter (fun c -> Metrics.observe h (Bitstring.length c)) certs
  end

let run ?(early_exit = false) scheme inst certs =
  let rejections = ref [] in
  (try
     for v = Graph.n inst.Instance.graph - 1 downto 0 do
       match verify scheme (view_of inst certs v) with
       | Accept -> ()
       | Reject reason ->
           rejections := (v, reason) :: !rejections;
           if early_exit then raise Exit
     done
   with Exit -> ());
  let outcome =
    {
      accepted = !rejections = [];
      rejections = !rejections;
      max_bits = max_cert_bits certs;
    }
  in
  (* Early-exit sweeps are not counted: they are the attack path,
     where racing trial pruning makes even the number of sweeps
     scheduling-dependent. *)
  if not early_exit then record_outcome scheme outcome;
  outcome

(* Dedupe pays only where certificates repeat.  A plane lowering's
   certificates are per-vertex by construction (a spanning label embeds
   the vertex's own distance and parent id; see Vcompile's plane
   branch), and its provers write them born packed, so a dedupe table
   would hash n distinct values for nothing.  Boxed lowerings see
   repeats (kernel-MSO labels, broadcast schemes, tree-MSO's few
   states), and Cert_store collapses them. *)
let intern scheme certs =
  let (Compiled l) = scheme.lowering in
  match l.flat with Some _ -> certs | None -> Cert_store.intern_all certs

let prover_timer = Metrics.timer "prover"
let verify_timer = Metrics.timer "verify"

let certify scheme inst =
  Tracer.with_slice (scheme.telemetry.certify_timer ()) @@ fun () ->
  match Tracer.with_slice prover_timer (fun () -> scheme.prover inst) with
  | None ->
      Logger.debug ~fields:[ ("scheme", scheme.name) ] "prover gave up";
      None
  | Some certs ->
      (* Dedupe is observation-equal, so the outcome and max_bits
         are unchanged. *)
      let certs = intern scheme certs in
      record_cert_sizes scheme certs;
      let outcome =
        Tracer.with_slice verify_timer (fun () -> run scheme inst certs)
      in
      Logger.debug
        ~fields:
          [
            ("scheme", scheme.name);
            ("accepted", string_of_bool outcome.accepted);
            ("max_bits", string_of_int outcome.max_bits);
          ]
        "certify done";
      Some (certs, outcome)

let certificate_size scheme inst =
  match scheme.prover inst with
  | None -> None
  | Some certs -> Some (max_cert_bits certs)

let accepts_with scheme inst certs =
  (run ~early_exit:true scheme inst certs).accepted

(* Pair encoding: length-prefixed first component, then the second. *)
let encode_pair a b =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.bitstring w a;
  Bitbuf.Writer.bitstring w b;
  Bitbuf.Writer.contents w

let decode_pair c =
  Bitbuf.decode c (fun r ->
      let a = Bitbuf.Reader.bitstring r in
      let b = Bitbuf.Reader.bitstring r in
      (a, b))

(* Combinators compose lowerings, so a combined scheme takes the
   compiled path like any other.  A sub-check runs on a 0-based copy
   of the vertex's neighbor slice, projected to its own component. *)
let sub_check l ~id_bits ~me ~label mine nbrs =
  let deg = List.length nbrs in
  l.check ~id_bits ~me ~label mine ~ids:(Array.of_list (List.map fst nbrs))
    ~src:(identity_src deg) ~decs:(Array.of_list (List.map snd nbrs)) ~lo:0
    ~hi:deg

let conjoin_lowering n1 l1 n2 l2 =
  {
    decode =
      (fun ~id_bits c ->
        Option.map
          (fun (a, b) -> (l1.decode ~id_bits a, l2.decode ~id_bits b))
          (decode_pair c));
    check =
      (fun ~id_bits ~me ~label mine ~ids ~src ~decs ~lo ~hi ->
        match mine with
        | None -> Reject "conjoin: malformed pair certificate"
        | Some (mine1, mine2) -> (
            match decoded_neighbors ~ids ~src ~decs ~lo ~hi with
            | None -> Reject "conjoin: malformed neighbor certificate"
            | Some nbrs -> (
                let half proj = List.map (fun (id, d) -> (id, proj d)) nbrs in
                match sub_check l1 ~id_bits ~me ~label mine1 (half fst) with
                | Reject r -> Reject (n1 ^ ": " ^ r)
                | Accept -> (
                    match
                      sub_check l2 ~id_bits ~me ~label mine2 (half snd)
                    with
                    | Reject r -> Reject (n2 ^ ": " ^ r)
                    | Accept -> Accept))));
    flat = None;
  }

let conjoin ~name s1 s2 =
  let prover inst =
    match (s1.prover inst, s2.prover inst) with
    | Some c1, Some c2 -> Some (Array.map2 encode_pair c1 c2)
    | _ -> None
  in
  match (s1.lowering, s2.lowering) with
  | Compiled l1, Compiled l2 ->
      of_lowering ~name ~prover (conjoin_lowering s1.name l1 s2.name l2)

(* The decoded value is the selector as [Left]/[Right] around the
   chosen scheme's decode of the body. *)
let disjoin_lowering l1 l2 =
  let untag c =
    Bitbuf.decode c (fun r ->
        let bit = Bitbuf.Reader.bit r in
        let body = Bitbuf.Reader.bitstring r in
        (bit, body))
  in
  {
    decode =
      (fun ~id_bits c ->
        Option.map
          (fun (sel, body) ->
            if sel then Either.Right (l2.decode ~id_bits body)
            else Either.Left (l1.decode ~id_bits body))
          (untag c));
    check =
      (fun ~id_bits ~me ~label mine ~ids ~src ~decs ~lo ~hi ->
        match mine with
        | None -> Reject "disjoin: malformed certificate"
        | Some mine -> (
            match decoded_neighbors ~ids ~src ~decs ~lo ~hi with
            | None -> Reject "disjoin: malformed neighbor certificate"
            | Some nbrs -> (
                let sel = Either.is_right mine in
                if List.exists (fun (_, d) -> Either.is_right d <> sel) nbrs
                then Reject "disjoin: neighbors disagree on the selector"
                else
                  let side pick =
                    List.map (fun (id, d) -> (id, Option.get (pick d))) nbrs
                  in
                  match mine with
                  | Left m ->
                      sub_check l1 ~id_bits ~me ~label m
                        (side Either.find_left)
                  | Right m ->
                      sub_check l2 ~id_bits ~me ~label m
                        (side Either.find_right))));
    flat = None;
  }

let disjoin ~name s1 s2 =
  let tag bit c =
    let w = Bitbuf.Writer.create () in
    Bitbuf.Writer.bit w bit;
    Bitbuf.Writer.bitstring w c;
    Bitbuf.Writer.contents w
  in
  let prover inst =
    match s1.prover inst with
    | Some c1 -> Some (Array.map (tag false) c1)
    | None -> (
        match s2.prover inst with
        | Some c2 -> Some (Array.map (tag true) c2)
        | None -> None)
  in
  match (s1.lowering, s2.lowering) with
  | Compiled l1, Compiled l2 ->
      of_lowering ~name ~prover (disjoin_lowering l1 l2)

let trivial ~name decide =
  of_lowering ~name
    ~prover:(fun inst -> Some (Array.make (Instance.n inst) Bitstring.empty))
    {
      decode = (fun ~id_bits:_ _ -> ());
      check =
        (fun ~id_bits:_ ~me:_ ~label:_ () ~ids:_ ~src:_ ~decs:_ ~lo ~hi ->
          decide ~degree:(hi - lo));
      flat = None;
    }

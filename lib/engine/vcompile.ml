(* Ahead-of-time compilation of lowered verifiers.

   Every scheme's verifier is a lowering: a total decode stage and a
   check stage over pre-decoded values (Scheme.lowering).  The
   interpreted oracle (Scheme.verify) re-decodes every certificate at
   every vertex that sees it — a vertex of degree d costs d + 1
   decodes, and the allocations those decodes make are what serializes
   parallel sweeps on the shared minor heap.  [compile] instead decodes
   up front, once per vertex for a plane-backed lowering (read straight
   into its int-plane row, then copied into slot order) and once per
   distinct certificate for a boxed one (broadcast-heavy schemes decode
   a handful of strings) into one value per vertex that a row reads
   through its neighbors' vertex indices.  The per-vertex kernel
   runs only the check stage: no decoding, and for checks that walk
   their row in place (the flat-plane families among them) no
   allocation on the accept path. *)

module BH = Hashtbl.Make (struct
  type t = Bitstring.t

  let hash = Bitstring.hash
  let equal = Bitstring.equal
end)

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

type kernel = {
  check : int -> Scheme.verdict;
  swap : int -> Bitstring.t -> int -> Scheme.verdict;
  max_bits : int;
}

(* The compiled layout mirrors the graph's CSR: one whole-graph
   [nbr_ids] array shaped exactly like the adjacency [col] array, rows
   sorted ascending by *identifier* — the order [Scheme.view_of]
   presents — and the kernel hands each check its row as a slice, so a
   sweep is one linear pass over flat memory with no per-vertex view
   structure at all.  [view_rows] returns [nbr_ids] and the source
   vertex of every slot ([src]).  Rows come out of the CSR in vertex
   order and ids are assigned ascending in vertex order for generated
   instances, so rows are almost always already sorted and the sources
   are [col] itself; a row that is not gets a joint insertion sort of
   its (id, source) pairs in a copy.  Ids are unique, so two slots tie
   only on a parallel edge, where the pairs are equal: the order is the
   one [Scheme.view_of]'s stable sort yields. *)
let view_rows ids rp col =
  let n = Array.length rp - 1 in
  let nbr_ids = Array.make rp.(n) 0 in
  let src = ref col in
  for v = 0 to n - 1 do
    let lo = rp.(v) and hi = rp.(v + 1) in
    let sorted = ref true in
    for i = lo to hi - 1 do
      let idu = ids.(Array.unsafe_get col i) in
      nbr_ids.(i) <- idu;
      if i > lo && nbr_ids.(i - 1) > idu then sorted := false
    done;
    if not !sorted then begin
      if !src == col then src := Array.copy col;
      let src = !src in
      for i = lo + 1 to hi - 1 do
        let ki = nbr_ids.(i) and si = src.(i) in
        let j = ref (i - 1) in
        while !j >= lo && nbr_ids.(!j) > ki do
          nbr_ids.(!j + 1) <- nbr_ids.(!j);
          src.(!j + 1) <- src.(!j);
          decr j
        done;
        nbr_ids.(!j + 1) <- ki;
        src.(!j + 1) <- si
      done
    end
  done;
  (nbr_ids, !src)

(* A raising decode or check propagates, as it does from Scheme.run:
   lowerings are total by contract, so a raise is a bug.  Both branches
   read every certificate once anyway, so they also take the outcome's
   [max_bits] there — with an int comparison: [Stdlib.max] is
   polymorphic, and without flambda each call is a [caml_compare]. *)
let build (scheme : Scheme.t) (inst : Instance.t) certs =
  match scheme.Scheme.lowering with
  | Scheme.Compiled l -> (
      Tracer.with_slice (Metrics.timer ("vcompile." ^ scheme.Scheme.name))
      @@ fun () ->
      let id_bits = inst.Instance.id_bits in
      let ids = inst.Instance.ids in
      let labels = inst.Instance.labels in
      let g = inst.Instance.graph in
      let n = Graph.n g in
      let rp, col = Graph.unsafe_csr g in
      let total = rp.(n) in
      let nbr_ids, src = view_rows ids rp col in
      (* one byte per vertex, set where the view holds v's certificate *)
      let sees v =
        let b = Bytes.make n '\000' in
        Bytes.set b v '\001';
        for i = rp.(v) to rp.(v + 1) - 1 do Bytes.set b col.(i) '\001' done;
        fun u -> Bytes.unsafe_get b u <> '\000'
      in
      match l.Scheme.flat with
      | Some f ->
          (* Schemes that publish a flat plane (Scheme.flat) get a
             struct-of-arrays layout: vertex [v]'s decoded fields as ints
             at [mine.(v * width ..)] and slot [i]'s at
             [plane.(i * width ..)].  Boxed records sit wherever the
             major allocator's free lists put them, so on graphs whose
             adjacency is not id-local every dereference is a cache miss;
             the planes are int arrays a row walk streams, where reading
             [mine] through [src] costs a sweep after idle time a random
             cold read per slot (DESIGN §5.5).  Certificates are
             per-vertex, so each is read once, straight into its row of
             [mine], with no decoded value in between. *)
          let k = f.Scheme.width in
          let plane = Array.make (total * k) 0 in
          let mine = Array.make (n * k) 0 in
          let max_bits = ref 0 in
          for v = 0 to n - 1 do
            let c = certs.(v) in
            let len = Bitstring.length c in
            if len > !max_bits then max_bits := len;
            f.Scheme.read ~id_bits c mine (v * k)
          done;
          for i = 0 to total - 1 do
            let s = Array.unsafe_get src i * k and d = i * k in
            for j = 0 to k - 1 do
              Array.unsafe_set plane (d + j) (Array.unsafe_get mine (s + j))
            done
          done;
          let check v =
            f.Scheme.check_flat ~id_bits ~me:(Array.unsafe_get ids v)
              ~label:(Array.unsafe_get labels v) ~mine ~mbase:(v * k)
              ~ids:nbr_ids ~plane ~lo:(Array.unsafe_get rp v)
              ~hi:(Array.unsafe_get rp (v + 1))
          in
          (* where u sees v, a copy of u's row takes v's from [c] *)
          let swap v c =
            let row = Array.make k 0 and sees = sees v in
            f.Scheme.read ~id_bits c row 0;
            fun u ->
              if not (sees u) then check u else
              let lo = rp.(u) and deg = rp.(u + 1) - rp.(u) in
              let plane = Array.sub plane (lo * k) (deg * k) in
              for i = 0 to deg - 1 do
                if src.(lo + i) = v then Array.blit row 0 plane (i * k) k
              done;
              let mine, mbase = if u = v then (row, 0) else (mine, u * k) in
              f.Scheme.check_flat ~id_bits ~me:ids.(u) ~label:labels.(u) ~mine
                ~mbase ~ids:(Array.sub nbr_ids lo deg) ~plane ~lo:0 ~hi:deg
          in
          { check; swap; max_bits = !max_bits }
      | None ->
          (* Boxed lowerings (lcl, tree-MSO, treedepth, kernel-MSO, the
             FO fragments, the combinators) see repeated certificates —
             kernel-MSO labels embed one kernel description, broadcast
             schemes hand every vertex the same label — so each distinct
             certificate is decoded once and vertices share the value. *)
          let cache = BH.create (max 16 (min n 65536)) in
          let dec_of c =
            match BH.find_opt cache c with
            | Some d -> d
            | None ->
                let d = l.Scheme.decode ~id_bits c in
                BH.add cache c d;
                d
          in
          let max_bits = ref 0 in
          let decs =
            Array.map
              (fun c ->
                let len = Bitstring.length c in
                if len > !max_bits then max_bits := len;
                dec_of c)
              certs
          in
          let check v =
            l.Scheme.check ~id_bits ~me:(Array.unsafe_get ids v)
              ~label:(Array.unsafe_get labels v) (Array.unsafe_get decs v)
              ~ids:nbr_ids ~src ~decs ~lo:(Array.unsafe_get rp v)
              ~hi:(Array.unsafe_get rp (v + 1))
          in
          (* where u sees v, a copy of u's values takes v's from [c] *)
          let swap v c =
            let d = l.Scheme.decode ~id_bits c in
            let sees = sees v and dec w = if w = v then d else decs.(w) in
            fun u ->
              if not (sees u) then check u else
              let lo = rp.(u) and deg = rp.(u + 1) - rp.(u) in
              l.Scheme.check ~id_bits ~me:ids.(u) ~label:labels.(u) (dec u)
                ~ids:(Array.sub nbr_ids lo deg) ~src:(Scheme.identity_src deg)
                ~decs:(Array.init deg (fun i -> dec src.(lo + i)))
                ~lo:0 ~hi:deg
          in
          { check; swap; max_bits = !max_bits })

let compile scheme inst certs =
  if Atomic.get enabled then Some (build scheme inst certs) else None

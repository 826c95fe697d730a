(* Structural key for a radius-1 view.

   The distributed runtime's verdict cache is keyed by everything a
   verifier can observe that changes between rounds: the vertex's own
   stored certificate and the sorted inbox of (sender id, payload)
   pairs.  The static parts of a view (own id, id_bits, label) are
   fixed for the lifetime of an execution and deliberately left out.

   The digest is a 62-bit FNV-1a-style fold over [Bitstring.hash]
   values.  It is a fast-reject fingerprint only: [equal] always
   confirms a digest match structurally, so a (astronomically rare)
   digest collision costs one redundant comparison, never a wrong
   cached verdict.  Payloads are deduped certificates on the hot path
   ([Cert_store.intern_all]), which makes both the per-bitstring hash (cached in
   the value) and the structural comparison (usually a pointer test)
   cheap. *)

type t = {
  digest : int;
  cert : Bitstring.t;
  nbrs : (int * Bitstring.t) list;  (* ascending sender id *)
}

(* 62-bit FNV-1a constants (the 64-bit ones, folded into OCaml's
   nonnegative int range). *)
let fnv_offset = Int64.to_int 0xCBF29CE484222325L land max_int
let fnv_prime = 0x100000001B3

let mix h v = (h lxor v) * fnv_prime land max_int

let make ~cert ~nbrs =
  let h = mix fnv_offset (Bitstring.hash cert) in
  let digest =
    List.fold_left
      (fun h (id, payload) -> mix (mix h id) (Bitstring.hash payload))
      h nbrs
  in
  { digest; cert; nbrs }

let digest t = t.digest

let equal a b =
  a.digest = b.digest
  && Bitstring.equal a.cert b.cert
  && List.equal
       (fun (ia, ca) (ib, cb) -> ia = ib && Bitstring.equal ca cb)
       a.nbrs b.nbrs

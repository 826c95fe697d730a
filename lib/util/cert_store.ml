(* Per-array certificate dedupe.

   Provers allocate the same certificate value many times over: every
   kernel-MSO label embeds the same kernel description, and broadcast
   schemes hand every vertex one label.  [intern_all] collapses equal
   payloads within one certificate array through a table local to the
   call, so duplicates are pointer-shared — which also turns
   [Bitstring.equal] on them into a pointer comparison.  The table
   dies with the call: no state outlives it, so nothing a request
   makes can grow a process-wide structure.

   Where it runs: [Scheme.intern] calls it for every boxed lowering
   (tree-MSO's 2×10⁵ certificates hold 6 payloads) and skips the
   plane-backed ones, whose certificates are per-vertex — hashing 2×10⁵
   distinct spanning labels found no repeat and took as long as the
   prover — and are born packed by their provers ([Bitbuf.pack]).
   [Runtime.execute] boots its nodes through [Scheme.intern] too.

   Dedupe is semantically invisible: every output element is
   structurally equal to its input, so scheme outcomes, wire-bit
   accounting (which only reads lengths) and [max_cert_bits] are
   byte-identical on the raw and the deduped array.  The differential
   suite in test/test_bitstring.ml pins that down.

   Arena packing.  At multi-million-vertex scale, per-vertex
   certificates are mostly distinct (a spanning-tree label embeds the
   vertex's own distance and parent id), and each payload is its own
   small [Bytes] block: n minor-heap allocations the GC then promotes
   and tracks one by one.  Arrays of at least [pack_threshold] entries
   instead have their payloads copied back-to-back into a few large
   chunks ([chunk_bytes] ≥ 4 MiB, well past the runtime's 256-word
   threshold, so each chunk is allocated directly in the major heap)
   and get byte-offset views ([Bitstring.unsafe_pack]) into them.
   Chunks are plain [Bytes] rather than Bigarray because the Bitstring
   kernels are monomorphic on [Bytes.t] — a second buffer type would
   either polymorphize (and deoptimize) every hot byte loop or fork the
   module.  A chunk dies when the last view into it does; lifetimes
   are per-assignment, so this is the certificate array's own
   lifetime.  Smaller arrays keep their payloads in place: copying
   them buys nothing the GC notices and costs a chunk's worth of
   resident memory per array. *)

let arena_packs = Atomic.make 0
let arena_certs = Atomic.make 0
let arena_bytes = Atomic.make 0

let () =
  Metrics.register_sampler (fun () ->
      [
        ("cert_store.arena_packs", Atomic.get arena_packs);
        ("cert_store.arena_bytes", Atomic.get arena_bytes);
      ])

module BH = Hashtbl.Make (struct
  type t = Bitstring.t

  let hash = Bitstring.hash
  let equal = Bitstring.equal
end)

let chunk_bytes = 4 lsl 20
let pack_threshold = 1 lsl 16

(* [store c] returns the value kept for the first occurrence of [c]'s
   payload: [c] itself in place, or its arena view when packing. *)
let dedupe certs store =
  let tbl = BH.create (min (Array.length certs) 65536) in
  Array.map
    (fun c ->
      if Bitstring.length c = 0 then c
      else
        match BH.find_opt tbl c with
        | Some v -> v
        | None ->
            let v = store c in
            BH.add tbl v v;
            v)
    certs

(* The arena totals are counted locally and published once per array:
   two atomic read-modify-writes per payload are contended cache-line
   traffic when parallel domains pack at once. *)
let pack certs =
  let chunk = ref Bytes.empty and pos = ref 0 in
  let copied = ref 0 and bytes = ref 0 in
  let packed =
    dedupe certs (fun c ->
        let nb = Bitstring.byte_size c in
        if !pos + nb > Bytes.length !chunk then begin
          chunk := Bytes.create (max chunk_bytes nb);
          pos := 0
        end;
        let v = Bitstring.unsafe_pack c !chunk ~off:!pos in
        pos := !pos + nb;
        incr copied;
        bytes := !bytes + nb;
        v)
  in
  Atomic.incr arena_packs;
  ignore (Atomic.fetch_and_add arena_certs !copied);
  ignore (Atomic.fetch_and_add arena_bytes !bytes);
  packed

let intern_all certs =
  if Array.length certs < pack_threshold then dedupe certs Fun.id
  else pack certs

type stats = { arena_packs : int; arena_certs : int; arena_bytes : int }

let stats () =
  {
    arena_packs = Atomic.get arena_packs;
    arena_certs = Atomic.get arena_certs;
    arena_bytes = Atomic.get arena_bytes;
  }

let reset () =
  Atomic.set arena_packs 0;
  Atomic.set arena_certs 0;
  Atomic.set arena_bytes 0

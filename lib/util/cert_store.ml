(* Hash-consed certificate store.

   Provers and the distributed runtime allocate the same certificate
   value many times over: every kernel-MSO label embeds the same kernel
   description, per-round re-broadcasts resend unchanged labels, and
   attack trials regenerate near-identical assignments.  Interning by
   (hash, bytes) makes each distinct certificate exist once, so
   duplicate labels are pointer-shared — which also turns
   [Bitstring.equal] on them into a pointer comparison.

   Interning is semantically invisible: the interned value is
   structurally equal to the input, so scheme outcomes, wire-bit
   accounting (which only reads lengths) and [max_cert_bits] are
   byte-identical with the store on or off.  The differential suite in
   test/test_bitstring.ml pins that down.

   The store is global and sharded like [Memo]; [set_enabled false]
   turns every [intern] into the identity (used by the transparency
   tests). *)

let enabled = Atomic.make true

let lookups = Atomic.make 0
let hits = Atomic.make 0
let arena_packs = Atomic.make 0
let arena_certs = Atomic.make 0
let arena_bytes = Atomic.make 0

let mk_store () : (Bitstring.t, Bitstring.t) Memo.t =
  Memo.create ~name:"cert_store" ~hash:Bitstring.hash ~equal:Bitstring.equal 256

let store = ref (mk_store ())

(* Live store size, exported as an approximate gauge at snapshot time
   (walking every shard is too expensive for an eager gauge). *)
let () =
  Metrics.register_sampler (fun () ->
      [
        ("cert_store.distinct", Memo.length !store);
        ("cert_store.arena_packs", Atomic.get arena_packs);
        ("cert_store.arena_bytes", Atomic.get arena_bytes);
      ])

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let intern c =
  if (not (Atomic.get enabled)) || Bitstring.length c = 0 then c
  else begin
    Atomic.incr lookups;
    let canonical = Memo.find_or_add !store c (fun () -> c) in
    if canonical != c then Atomic.incr hits;
    canonical
  end

(* Arena packing.  At multi-million-vertex scale, per-vertex
   certificates are mostly distinct (a spanning-tree label embeds the
   vertex's own distance and parent id), so routing them through the
   global intern table costs a hash lookup each and permanently grows
   the table to O(n) entries for zero sharing.  Worse, each payload is
   its own small [Bytes] block: n minor-heap allocations the GC then
   promotes and tracks one by one.

   [pack] instead copies payloads back-to-back into a few large chunks
   ([chunk_bytes] ≥ 4 MiB, well past the runtime's 256-word threshold,
   so each chunk is allocated directly in the major heap) and returns
   byte-offset views ([Bitstring.unsafe_pack]) into them.  Chunks are
   plain [Bytes] rather than Bigarray because the Bitstring kernels
   are monomorphic on [Bytes.t] — a second buffer type would either
   polymorphize (and deoptimize) every hot byte loop or fork the
   module.  A chunk dies when the last view into it does; lifetimes
   are per-assignment, so this is the certificate array's own
   lifetime.

   Duplicates still share: a pack-local table collapses equal payloads
   within the array (kernel-MSO broadcasts stay deduplicated) without
   touching the global store.  Packing preserves structural equality
   element-wise, so it is observably the interning identity — the
   differential suite in test/test_bitstring.ml pins that down. *)

module BH = Hashtbl.Make (struct
  type t = Bitstring.t

  let hash = Bitstring.hash
  let equal = Bitstring.equal
end)

let chunk_bytes = 4 lsl 20
let pack_threshold = 1 lsl 16

let pack certs =
  Atomic.incr arena_packs;
  let tbl = BH.create (min (Array.length certs) 65536) in
  let chunk = ref Bytes.empty and pos = ref 0 in
  Array.map
    (fun c ->
      let nb = Bitstring.byte_size c in
      if nb = 0 then c
      else
        match BH.find_opt tbl c with
        | Some v -> v
        | None ->
            if !pos + nb > Bytes.length !chunk then begin
              chunk := Bytes.create (max chunk_bytes nb);
              pos := 0
            end;
            let v = Bitstring.unsafe_pack c !chunk ~off:!pos in
            pos := !pos + nb;
            Atomic.incr arena_certs;
            ignore (Atomic.fetch_and_add arena_bytes nb);
            BH.add tbl v v;
            v)
    certs

let intern_all certs =
  if (not (Atomic.get enabled)) || Array.length certs < pack_threshold then
    Array.map intern certs
  else pack certs

type stats = {
  lookups : int;
  hits : int;
  distinct : int;
  arena_packs : int;
  arena_certs : int;
  arena_bytes : int;
}

let stats () =
  {
    lookups = Atomic.get lookups;
    hits = Atomic.get hits;
    distinct = Memo.length !store;
    arena_packs = Atomic.get arena_packs;
    arena_certs = Atomic.get arena_certs;
    arena_bytes = Atomic.get arena_bytes;
  }

let reset () =
  store := mk_store ();
  Atomic.set lookups 0;
  Atomic.set hits 0;
  Atomic.set arena_packs 0;
  Atomic.set arena_certs 0;
  Atomic.set arena_bytes 0

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

(* Exits 0 iff two domains, released together into [Vtype.make] on the
   same keys, get equal ids for equal keys and distinct ids for
   distinct keys.  A mismatch exits 2; an exception from a corrupted
   registry exits nonzero too. *)

open Localcert_kernel

let keys = 4096

(* Key [i]: a leaf type whose ancestor vector spells [i] in binary,
   then a parent over it, so some keys name types the other domain
   has just interned. *)
let intern () =
  Array.init keys (fun i ->
      let anc = List.init 13 (fun b -> (i lsr b) land 1 = 1) in
      let leaf = Vtype.make ~label:0 ~anc ~children:[] in
      Vtype.make ~label:1 ~anc:[] ~children:[ (leaf, 1 + (i land 3)) ])

let () =
  let go = Atomic.make false in
  let run () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Array.map Vtype.id (intern ())
  in
  let a = Domain.spawn run and b = Domain.spawn run in
  Atomic.set go true;
  let ia = Domain.join a and ib = Domain.join b in
  let distinct = Hashtbl.create keys in
  Array.iter (fun id -> Hashtbl.replace distinct id ()) ia;
  exit (if ia = ib && Hashtbl.length distinct = keys then 0 else 2)

(* Exits 0 iff two domains, released together, both solve their first
   exact treedepth correctly; an exception in either (the
   [Lazy.Undefined] of a racing lazy table) exits nonzero. *)

open Localcert_graph
open Localcert_treedepth

let () =
  let go = Atomic.make false in
  let solve () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Exact.treedepth (Gen.path 6)
  in
  let a = Domain.spawn solve and b = Domain.spawn solve in
  Atomic.set go true;
  let ta = Domain.join a and tb = Domain.join b in
  exit (if ta = 3 && tb = 3 then 0 else 2)

(* Coalescing of identical in-flight computations.

   A verify request is a pure function of its payload, so N concurrent
   requests for the same (scheme, instance) need one engine sweep, not
   N.  Coalescing happens at two granularities:

   - within a worker: the worker pops a queue batch and groups it by
     request ([group]), computing each distinct request once and
     fanning the response out — this is what makes Vcompile's compiled-kernel
     cache fire once per batch;
   - across workers: [run] registers the computation in a shared
     in-flight table; a second worker that starts the same request
     while the first is still computing blocks on the leader's result
     instead of recomputing.

   The leader's exception (non-fatal or fatal alike) is propagated to
   every follower — a follower cannot distinguish "I computed and it
   raised" from "the leader computed and it raised", which is exactly
   the semantics coalescing promises. *)

type 'v cell = {
  m : Mutex.t;
  done_cv : Condition.t;
  mutable result : ('v, exn) result option;
  mutable followers : int;
}

type ('k, 'v) t = {
  table : ('k, 'v cell) Hashtbl.t;
  tm : Mutex.t;
  batch_hist : Metrics.histogram Lazy.t;
  coalesced : Metrics.counter Lazy.t;
}

let create () =
  {
    table = Hashtbl.create 64;
    tm = Mutex.create ();
    batch_hist =
      lazy
        (Metrics.histogram ~approx:true
           ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]
           "serve.batch_size");
    coalesced = lazy (Metrics.counter ~approx:true "serve.coalesced");
  }

let observe_batch t size =
  if Metrics.is_enabled () then
    Metrics.observe (Lazy.force t.batch_hist) size

let run t key f =
  let role =
    Mutex.protect t.tm (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some cell ->
            cell.followers <- cell.followers + 1;
            `Follow cell
        | None ->
            let cell =
              {
                m = Mutex.create ();
                done_cv = Condition.create ();
                result = None;
                followers = 0;
              }
            in
            Hashtbl.replace t.table key cell;
            `Lead cell)
  in
  match role with
  | `Lead cell ->
      let result = match f () with v -> Ok v | exception e -> Error e in
      Mutex.protect t.tm (fun () -> Hashtbl.remove t.table key);
      Mutex.protect cell.m (fun () ->
          cell.result <- Some result;
          Condition.broadcast cell.done_cv);
      (match result with Ok v -> v | Error e -> raise e)
  | `Follow cell ->
      if Metrics.is_enabled () then Metrics.incr (Lazy.force t.coalesced);
      Mutex.lock cell.m;
      while cell.result = None do
        Condition.wait cell.done_cv cell.m
      done;
      let r = cell.result in
      Mutex.unlock cell.m;
      (match r with
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)

(* Group a popped batch by key, preserving first-seen key order and
   per-key item order.  [('k * 'a list) list] with each group's items
   in arrival order. *)
let group key items =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      let k = key item in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := item :: !l
      | None ->
          Hashtbl.replace tbl k (ref [ item ]);
          order := k :: !order)
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

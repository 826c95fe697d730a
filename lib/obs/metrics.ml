(* Shard-per-domain instrument registry.

   Layout: every counter (and every histogram bucket) is an array of
   [shard_count] independent atomic cells; a domain updates the cell at
   [domain_id land mask].  Two domains only share a cell when their ids
   collide modulo the table size, which the 2x-recommended-domain-count
   sizing makes rare — and even then the update is an atomic
   fetch-and-add, so the value is never lost, only the cache line
   shared.  Reading merges the shards by summation: addition is
   commutative and associative, so the merged value is independent of
   which domain performed which update (the order-independence the
   qcheck suite pins down).

   The enable flag is the only thing hot paths touch when telemetry is
   off: one atomic load, one branch. *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

let shard_count =
  let want = 2 * Domain.recommended_domain_count () in
  let rec pow2 c = if c >= want then c else pow2 (c * 2) in
  pow2 1

let mask = shard_count - 1
let shard_index () = (Domain.self () :> int) land mask

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ':' | '/' | '-' -> c
      | _ -> '_')
    name

type cells = int Atomic.t array

let make_cells () = Array.init shard_count (fun _ -> Atomic.make 0)
let zero_cells cells = Array.iter (fun c -> Atomic.set c 0) cells
let sum_cells cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

type counter = { c_approx : bool; c_cells : cells }
type gauge = { g_approx : bool; g_cell : int Atomic.t }

type histogram = {
  h_approx : bool;
  h_bounds : int array;
  (* buckets.(shard).(bucket), bucket count = bounds + 1 overflow *)
  h_buckets : cells array;
  h_sum : cells;
}

(* Timers time coarse scopes (a prover run, a sweep, a compile), so
   one cell per field is enough: a close is three atomic updates, and
   the rare same-timer race from two domains loses nothing. *)
type timer = {
  t_name : string;
  t_count : int Atomic.t;
  t_total_ns : int Atomic.t;
  t_max_ns : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram | T of timer

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()
let samplers : (unit -> (string * int) list) list ref = ref []

let register name make describe =
  let name = sanitize name in
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> (
          match describe i with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S is already another instrument kind"
                   name))
      | None ->
          let i, v = make name in
          Hashtbl.add registry name i;
          v)

let counter ?(approx = false) name =
  register name
    (fun _ ->
      let c = { c_approx = approx; c_cells = make_cells () } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let incr c =
  if Atomic.get enabled then
    ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) 1)

let add c d =
  if Atomic.get enabled then
    ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) d)

let value c = sum_cells c.c_cells

let gauge ?(approx = false) name =
  register name
    (fun _ ->
      let g = { g_approx = approx; g_cell = Atomic.make 0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let set_gauge g v = if Atomic.get enabled then Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let default_bounds =
  Array.init 21 (fun i -> 1 lsl i) (* 1, 2, 4, ..., 2^20 *)

let histogram ?(approx = false) ?(bounds = default_bounds) name =
  let ok = ref true in
  Array.iteri (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false) bounds;
  if Array.length bounds = 0 || not !ok then
    invalid_arg "Metrics.histogram: bounds must be non-empty and increasing";
  register name
    (fun _ ->
      let h =
        {
          h_approx = approx;
          h_bounds = Array.copy bounds;
          h_buckets =
            Array.init shard_count (fun _ ->
                Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0));
          h_sum = make_cells ();
        }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let bucket_index (bounds : int array) v =
  (* first bound >= v; bounds are short (~20), linear scan beats the
     branch mispredictions of binary search at this size.  The int
     annotation makes [<=] a machine comparison, not [caml_compare]. *)
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Atomic.get enabled then begin
    let s = shard_index () in
    ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_index h.h_bounds v) 1);
    ignore (Atomic.fetch_and_add h.h_sum.(s) v)
  end

let timer name =
  register name
    (fun name ->
      let z () = Atomic.make 0 in
      let t = { t_name = name; t_count = z (); t_total_ns = z (); t_max_ns = z () } in
      (T t, t))
    (function T t -> Some t | _ -> None)

let timer_name t = t.t_name

let record_ns t dt_ns =
  if Atomic.get enabled then begin
    let dt_ns = max 0 dt_ns in
    ignore (Atomic.fetch_and_add t.t_count 1);
    ignore (Atomic.fetch_and_add t.t_total_ns dt_ns);
    let rec raise_max () =
      let cur = Atomic.get t.t_max_ns in
      if dt_ns > cur && not (Atomic.compare_and_set t.t_max_ns cur dt_ns) then
        raise_max ()
    in
    raise_max ()
  end

let register_sampler f =
  Mutex.protect registry_mutex (fun () -> samplers := f :: !samplers)

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C c -> zero_cells c.c_cells
          | G g -> Atomic.set g.g_cell 0
          | H h ->
              Array.iter zero_cells h.h_buckets;
              zero_cells h.h_sum
          | T t ->
              List.iter (fun c -> Atomic.set c 0) [ t.t_count; t.t_total_ns; t.t_max_ns ])
        registry)

(* ------------------------------------------------------------------ *)
(* Snapshot accessors                                                  *)

let sorted_by_name l = List.sort (fun (a, _, _) (b, _, _) -> compare a b) l

let fold_registry f =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun name i acc -> f name i acc) registry [])

let counters () =
  fold_registry (fun name i acc ->
      match i with C c -> (name, c.c_approx, value c) :: acc | _ -> acc)
  |> sorted_by_name

let gauges () =
  fold_registry (fun name i acc ->
      match i with G g -> (name, g.g_approx, gauge_value g) :: acc | _ -> acc)
  |> sorted_by_name

type histogram_snapshot = {
  hname : string;
  happrox : bool;
  bounds : int array;
  counts : int array;
  sum : int;
}

let histograms () =
  fold_registry (fun name i acc ->
      match i with
      | H h ->
          let nb = Array.length h.h_bounds + 1 in
          let counts = Array.make nb 0 in
          Array.iter
            (fun shard ->
              Array.iteri (fun b c -> counts.(b) <- counts.(b) + Atomic.get c) shard)
            h.h_buckets;
          {
            hname = name;
            happrox = h.h_approx;
            bounds = Array.copy h.h_bounds;
            counts;
            sum = sum_cells h.h_sum;
          }
          :: acc
      | _ -> acc)
  |> List.sort (fun a b -> compare a.hname b.hname)

type timing = { name : string; count : int; total_ms : float; max_ms : float }

let timings () =
  let ms cell = float_of_int (Atomic.get cell) /. 1e6 in
  fold_registry (fun name i acc ->
      match i with
      | T t when Atomic.get t.t_count > 0 ->
          let count = Atomic.get t.t_count in
          { name; count; total_ms = ms t.t_total_ns; max_ms = ms t.t_max_ns }
          :: acc
      | _ -> acc)
  |> List.sort (fun a b -> compare a.name b.name)

let sampled () =
  let fs = Mutex.protect registry_mutex (fun () -> !samplers) in
  List.concat_map (fun f -> f ()) fs
  |> List.map (fun (n, v) -> (sanitize n, v))
  |> List.sort compare

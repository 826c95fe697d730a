(** Domain-safe initialisation on first use. *)

val make : (unit -> 'a) -> unit -> 'a
(** [make f] is a thunk that runs [f] on its first call and returns
    the same value afterwards.  Unlike a module-level [lazy] (OCaml 5's
    [Lazy.force] raises [Lazy.Undefined] when two domains force one
    suspension at once) it is safe from any domain: racing first calls
    may each run [f], and every caller gets a value [f] returned, so
    [f] must be pure or idempotent — a lookup table, or an instrument
    registered by name ([let c = make (fun () -> Metrics.counter "x")],
    then [Metrics.incr (c ())]; an instrument never used stays out of
    the snapshot).  After the first call it is one atomic load. *)

(** A reusable fixed-size pool of worker domains.

    OCaml 5 domains are heavyweight (roughly an OS thread plus a minor
    heap each), so spawning them per parallel region wastes the budget
    the region is meant to win back.  A {!t} spawns its workers once and
    reuses them for every {!map_chunks} call; schemes, benches and the
    CLI share one pool per [--jobs] setting.

    The calling domain participates in every parallel region: a pool of
    size [j] runs regions on at most [j] domains total ([j - 1] workers
    plus the caller), so [create ~jobs:1] degenerates to purely
    sequential execution with no worker domains at all.

    [jobs] is a {e logical} size.  The pool spawns at most
    [Domain.recommended_domain_count () - 1] worker domains no matter
    how large [jobs] is: in OCaml 5 every minor collection is a
    stop-the-world rendezvous across all domains, and a runnable but
    descheduled domain (inevitable once domains outnumber cores) stalls
    each rendezvous for up to a scheduling quantum, making
    oversubscribed pools slower than sequential execution.  The clamp
    affects only physical parallelism — {!size}, chunk geometry and
    results are exactly those of the requested [jobs], so outputs are
    reproducible across machines. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool running parallel regions on up to
    [jobs] domains.  [jobs] defaults to
    {!Domain.recommended_domain_count}; values below 1 are clamped
    to 1.  Raises [Invalid_argument] on more than 128 jobs (a safety
    rail: domains are not threads). *)

val size : t -> int
(** The logical pool size: the [jobs] requested at {!create}, which
    callers use to derive chunk geometry.  The physical domain count
    may be lower on machines with fewer cores (see the clamp above). *)

val map_chunks : t -> chunks:int -> (int -> 'a) -> 'a array
(** [map_chunks pool ~chunks f] computes [[| f 0; …; f (chunks - 1) |]],
    evaluating the [f i] concurrently on the pool's domains.  Chunks are
    claimed dynamically (an atomic counter), so uneven chunk costs load
    balance; results are returned in index order regardless of
    completion order.  If any [f i] raises, one such exception is
    re-raised in the caller after every claimed chunk has finished.

    [f] must be safe to call from multiple domains concurrently.
    Nested calls from inside [f] are allowed (the nested caller drains
    its own chunks), though they share the same workers. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Calling
    {!map_chunks} after [shutdown] raises [Invalid_argument]. *)

val with_pool : ?pool:t -> ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down when
    [f] returns or raises.  [with_pool ~pool f] runs [f] on [pool] and
    leaves it running; [jobs] is then ignored. *)

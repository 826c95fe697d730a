(** Global, shard-per-domain metrics registry.

    Instruments are registered once by name in a process-global
    registry and updated lock-free from any domain: counters and
    histograms keep one atomic cell (per bucket) per {e shard}, where a
    domain's shard is its id masked into a power-of-two table sized at
    twice [Domain.recommended_domain_count].  Parallel verification
    domains therefore never contend on a shared cache line for the hot
    counters, and reading an instrument merges the shards by summation
    — an order-independent reduction, which is what makes every count
    deterministic for a deterministic workload regardless of
    scheduling (see DESIGN §5.3).

    All updates are guarded by one global enable flag: with telemetry
    off (the default), every [incr]/[add]/[observe] is a single atomic
    load and branch, cheap enough to leave compiled into every hot
    path.  Instrument {e registration} is mutex-protected and should
    itself sit behind {!is_enabled} when performed per-operation.

    Instruments registered with [~approx:true] carry values that are
    not reproducible across runs (timing-derived, or racy cache
    accounting); {!Export} segregates them from the deterministic
    section of a snapshot.  Timers are always approximate. *)

val set_enabled : bool -> unit
(** Toggle all metric recording globally (default: disabled). *)

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with recording forced on/off, restoring the previous
    setting afterwards (even on exceptions). *)

val reset : unit -> unit
(** Zero every registered instrument (handles stay valid).
    Registration is permanent; only values are cleared.  Samplers are
    unaffected — they report live external state. *)

val shard_count : int
(** Power of two, at least twice [Domain.recommended_domain_count]. *)

val sanitize : string -> string
(** The name normalization applied at registration: every character
    outside [[A-Za-z0-9_.:/-]] becomes ['_'].  Exposed so callers can
    predict the registered name of a dynamically-built metric. *)

(** {1 Counters} *)

type counter

val counter : ?approx:bool -> string -> counter
(** Find or register a monotone counter.  The first registration fixes
    the [approx] flag; later lookups return the same instrument.
    @raise Invalid_argument if the name is registered as another
    instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
(** Sum over all shards (atomic per shard, not globally — exact once
    writers are quiescent). *)

(** {1 Gauges} *)

type gauge

val gauge : ?approx:bool -> string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

val default_bounds : int array
(** Powers of two from 1 to 2{^20} — a good fit for certificate sizes
    in bits and chunk sizes in vertices. *)

val histogram : ?approx:bool -> ?bounds:int array -> string -> histogram
(** Fixed-bucket histogram: [bounds] are inclusive upper limits, in
    strictly increasing order (default {!default_bounds}); one overflow
    bucket is added past the last bound.
    @raise Invalid_argument on unsorted bounds or a kind mismatch. *)

val observe : histogram -> int -> unit
(** Record a value: bumps the first bucket whose bound is [>= v] (or
    the overflow bucket) and adds [v] to the histogram sum. *)

(** {1 Timers} *)

type timer
(** Run count, total and longest run of one named scope, timed by
    {!Tracer.with_slice}. *)

val timer : string -> timer
(** Find or register a timer.
    @raise Invalid_argument on a kind mismatch. *)

val timer_name : timer -> string
(** The registered ({!sanitize}d) name. *)

val record_ns : timer -> int -> unit
(** Add one run of that many nanoseconds (negative counts as 0). *)

(** {1 Samplers} *)

val register_sampler : (unit -> (string * int) list) -> unit
(** Register a callback evaluated at snapshot time; its (name, value)
    pairs are exported as approximate gauges (e.g. live cache sizes).
    Sampler names are {!sanitize}d at snapshot time. *)

(** {1 Snapshot accessors} (used by {!Export} and the test suite) *)

val counters : unit -> (string * bool * int) list
(** [(name, approx, value)], sorted by name. *)

val gauges : unit -> (string * bool * int) list

type histogram_snapshot = {
  hname : string;
  happrox : bool;
  bounds : int array;
  counts : int array;  (** length [Array.length bounds + 1]; last = overflow *)
  sum : int;
}

val histograms : unit -> histogram_snapshot list
(** Sorted by name; shard cells already merged. *)

type timing = { name : string; count : int; total_ms : float; max_ms : float }

val timings : unit -> timing list
(** The timers that have run since the last {!reset}, sorted by
    name. *)

val sampled : unit -> (string * int) list
(** All registered samplers' output, merged and sorted by name. *)

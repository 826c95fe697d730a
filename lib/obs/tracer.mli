(** Request-scoped event tracing: per-domain rings, trace-context
    propagation, and Chrome trace-event export for Perfetto.

    {!Metrics} keeps {e aggregates}; this module keeps {e events} —
    individual timestamped begin/end/instant/flow records — so the
    journey of one request (accept → admission queue → worker drain →
    batch coalesce → compiled kernel → response write) is visible as a
    timeline rather than averaged away.  {!with_slice} is the one
    scope timer and feeds both: a slice on the timeline and a
    {!Metrics.timer} aggregate.

    {2 Recording model}

    Each domain owns one fixed-capacity ring buffer, created lazily on
    first use and registered in a process-global list.  A ring has a
    single writer (its domain), so appends are plain stores with no
    synchronization; readers ({!export}, {!dropped_events}) run after
    writers are quiescent or accept a torn tail.  On overflow the
    {e new} event is dropped — earlier events are never overwritten —
    and a per-ring counter plus the [obs.trace_dropped] metric record
    how many were lost.  Timestamps come from {!Monotonic}, so one
    machine's client and server rings merge onto a comparable
    timeline.

    With tracing disabled (the default) every emitter is one atomic
    load and branch, cheap enough to leave compiled into the kernel
    hot paths.  Enabled, an emit allocates one event record, so a
    verification sweep gains a fixed number of minor words, never one
    per vertex ([test/test_tracer.ml] holds this).

    {2 Trace context}

    A {e trace id} is a caller-chosen integer in [[0, 2{^62})], carried
    on the wire in the frame header (see {!Localcert_serve.Wire}) and
    installed for a dynamic extent with {!with_context}.  Emitters
    default their [?trace] argument to the ambient context, so
    instrumentation deep in the engine tags its events with the request
    that caused them without plumbing ids through every signature.

    {2 Export}

    {!export} renders the rings as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]) that {{:https://ui.perfetto.dev}Perfetto}
    opens directly: pid = process, tid = domain, with [process_name] /
    [thread_name] metadata, and flow arrows ([ph: s/t/f]) stitching a
    request across domains and processes.  Trace ids and flow ids are
    rendered as decimal {e strings} — they exceed 2{^53} and would be
    mangled by float-typed JSON numbers.  {!merge} combines documents
    from several processes (server + load generator) and {!validate}
    checks well-formedness; both back [localcert trace-merge]. *)

(** {1 Enabling} *)

val set_enabled : bool -> unit
(** Toggle event recording globally (default: disabled).  Disabling
    does not clear the rings; {!export} still sees recorded events. *)

val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with recording forced on/off, restoring the previous
    setting afterwards (even on exceptions). *)

val default_capacity : int
(** Events per domain ring (65536). *)

val reset : ?capacity:int -> unit -> unit
(** Discard all rings (running domains re-create theirs, sized
    [capacity], on their next append) and zero the drop counts.
    Intended for tests and for reuse across benchmark reps. *)

val dropped_events : unit -> int
(** Total events dropped to overflow across all live rings since the
    last {!reset}. *)

(** {1 Trace context} *)

val with_context : int option -> (unit -> 'a) -> 'a
(** [with_context (Some id) f] makes [id] the ambient trace id on the
    calling domain for the extent of [f] (restored on exit, even on
    exceptions).  [with_context None f] clears it, shielding [f] from
    an outer context. *)

val current_context : unit -> int option
(** The calling domain's ambient trace id, if any. *)

(** {1 Emission}

    All emitters are single-branch no-ops while disabled.  [?trace]
    defaults to {!current_context}; pass it explicitly when the id is
    known but not installed (e.g. on the server IO domain, which
    handles many requests interleaved). *)

val begin_slice : ?trace:int -> string -> unit
(** Open a duration slice on this domain's timeline.  Must be closed
    by a matching {!end_slice} on the same domain; {!validate} checks
    stack discipline per timeline. *)

val end_slice : string -> unit
(** Close the innermost open slice.  The name is checked at validation
    time, not at emission time. *)

val with_slice : Metrics.timer -> (unit -> 'a) -> 'a
(** [with_slice timer f] runs [f] as one scope named
    [Metrics.timer_name timer]: with tracing on, a begin/end slice pair
    on this domain's timeline; with metrics on, [f]'s wall time added
    to [timer].  The slice is closed and the time recorded even if [f]
    raises.  With both off it is one branch around [f].  Nesting shows
    in the trace; the aggregate is keyed by the flat timer name. *)

val complete_slice :
  ?trace:int -> ?args:(string * int) list -> ?tid:int -> ?t1_ns:int ->
  t0_ns:int -> string -> unit
(** A self-contained slice ([ph: X]) from [t0_ns] to [t1_ns] (default:
    now), timestamps from {!Monotonic.now_ns}.  This is the shape for
    durations measured across domains — e.g. queue wait, where the
    start was stamped by the IO domain and the slice is recorded by
    the worker that drained the job.  [args] adds small integer
    annotations (batch size, payload bytes); [tid] renders the slice
    on another domain's timeline (the event is still stored in the
    emitting domain's ring — rings stay single-writer). *)

val instant : ?trace:int -> ?args:(string * int) list -> string -> unit
(** A zero-duration mark ([ph: i], thread scope). *)

val flow_start : ?trace:int -> id:int -> string -> unit
(** Begin a flow arrow ([ph: s]).  [id] links the arrow's segments
    across timelines and is conventionally the trace id. *)

val flow_step : ?trace:int -> id:int -> string -> unit
(** Continue a flow on another timeline ([ph: t]). *)

val flow_end : ?trace:int -> id:int -> string -> unit
(** Terminate a flow ([ph: f], binding to the enclosing slice). *)

(** {1 Export and tooling} *)

val export : ?process_name:string -> unit -> Json.t
(** Merge this process's rings into a Chrome trace-event document.
    [process_name] labels the pid row in Perfetto (default
    ["localcert"]).  Events are ordered by timestamp (stable, so a
    ring's same-timestamp begin/end order is preserved); metadata
    events come first. *)

val write_file : ?process_name:string -> string -> unit
(** {!export} rendered to [path] with a trailing newline. *)

val merge : Json.t list -> Json.t
(** Combine several trace documents (e.g. server + loadgen) into one:
    concatenates [traceEvents] and re-sorts by timestamp, keeping
    metadata events first.
    @raise Invalid_argument if a document has no [traceEvents] array. *)

val validate : ?require_traced_request:bool -> Json.t -> (unit, string list) result
(** Structural well-formedness: known event phases, finite timestamps
    monotone per timeline, begin/end balanced and properly nested per
    timeline, flow steps/ends preceded by a matching start, non-negative
    durations.  With [require_traced_request], additionally demand at
    least one trace id whose slices include queue-wait, batch, kernel
    and response-write phases spanning ≥ 2 timelines, stitched to a
    flow started on a timeline outside those slices (the client side) —
    the end-to-end acceptance shape for a served request. *)

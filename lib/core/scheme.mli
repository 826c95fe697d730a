(** The local certification framework (Section 3.3).

    A scheme is a prover together with a radius-1 verifier:

    - the {e prover} sees the whole instance and, on yes-instances,
      produces one certificate (bit string) per vertex;
    - the {e verifier} runs at each vertex on its {!view} — its own
      identifier and certificate and the identifiers and certificates
      of its neighbors (radius exactly 1: it does {e not} see edges
      among its neighbors, per Section 2.2 / Appendix A.1) — and
      accepts or rejects.

    A scheme certifies a property when (completeness) on yes-instances
    the prover's certificates make every vertex accept, and (soundness)
    on no-instances {e every} certificate assignment is rejected by at
    least one vertex.  {!run} decides one assignment; the adversarial
    side lives in {!Attack}. *)

type view = {
  me : int;  (** own identifier *)
  id_bits : int;  (** instance-global ID width (public knowledge) *)
  label : int;  (** own vertex label (0 when unlabeled) *)
  cert : Bitstring.t;
  nbrs : (int * Bitstring.t) list;
      (** (identifier, certificate) of each neighbor, sorted by id *)
}

type verdict = Accept | Reject of string
(** Rejections carry a human-readable reason; the framework treats any
    [Reject _] identically. *)

type 'dec lowering = {
  decode : id_bits:int -> Bitstring.t -> 'dec;
      (** Total per-certificate decoding: malformed input is
          represented {e inside} ['dec] (e.g. with an option), never
          raised, so a decoded value can be computed once per distinct
          certificate and shared by every vertex that sees it. *)
  check :
    id_bits:int ->
    me:int ->
    label:int ->
    'dec ->
    ids:int array ->
    src:int array ->
    decs:'dec array ->
    lo:int ->
    hi:int ->
    verdict;
      (** The radius-1 check over pre-decoded certificates.  Slot
          [i ∈ [lo, hi)] is the neighbor [ids.(i)] (ascending) whose
          decoded value is [decs.(src.(i))]: whole-graph CSR rows over
          one value per vertex in the compiled engine, 0-based slices
          with {!identity_src} on interpreted paths. *)
  flat : flat option;
      (** Optional struct-of-arrays plane for the compiled engine;
          [None] keeps the boxed [decs] layout.  Build a plane-backed
          lowering with {!flat_lowering}, which derives [decode] and
          [check]. *)
}

and flat = {
  width : int;  (** ints per row *)
  read : id_bits:int -> Bitstring.t -> int array -> int -> unit;
      (** [read ~id_bits c plane base] decodes [c] straight into its
          row [plane.(base .. base + width - 1)] — the lowering's one
          decoded form.  Total like [decode]: a malformed certificate
          is a row the check rejects (the spanning family writes
          [valid = 0] in its first field), never a raise. *)
  check_flat :
    id_bits:int ->
    me:int ->
    label:int ->
    mine:int array ->
    mbase:int ->
    ids:int array ->
    plane:int array ->
    lo:int ->
    hi:int ->
    verdict;
      (** The check over planes instead of boxed values: the
          vertex's own row lives at [mine.(mbase .. mbase + width -
          1)] and slot [i]'s at [plane.(i * width ..)], parallel to
          [ids.(i)].  The lowering's one check: {!flat_lowering}
          derives the boxed [check] from it. *)
}
(** A scheme verifier split into decode and check stages — the one
    representation of a verifier.  The interpreted oracle {!verify}
    and the ahead-of-time compiled engine path
    ({!Localcert_engine.Vcompile}) both end in the same check — [check],
    or for a plane-backed lowering [check_flat], from which
    {!flat_lowering} derives [check] — so their verdicts, reason
    strings included, agree by construction.

    Why planes exist: decoded records are boxed, and the major heap's
    size-class free lists place them wherever holes are — at 10⁶+
    vertices every neighbor dereference in a row walk is then a cache
    miss on any graph whose adjacency is not id-local.  An int plane
    is one contiguous unboxed array; the same walk streams it
    sequentially (DESIGN §5.7), so a plane keeps a copy per slot where
    a boxed [check] reads one value per vertex through [src].  A
    certificate decodes straight into its plane row ([read]); the
    boxed value of a plane lowering is that row. *)

type compiled = Compiled : 'dec lowering -> compiled
(** A lowering with its decoded representation abstracted away — what
    a scheme publishes for the engine to compile. *)

type telemetry
(** The scheme's [scheme.<name>.*] instruments and its [certify.<name>]
    timer, each registered on first use ({!Localcert_obs.Once}) so a
    sweep looks none of them up by name. *)

type t = {
  name : string;
  prover : Instance.t -> Bitstring.t array option;
      (** [None] when the instance is a no-instance (or the prover
          cannot find a witness); [Some certs] indexed by vertex. *)
  lowering : compiled;  (** The verifier. *)
  telemetry : telemetry;  (** Built by {!of_lowering} from [name]. *)
}

val verify : t -> view -> verdict
(** Run the scheme's lowering on one view, decoding from scratch — the
    interpreted reference semantics every engine is held to. *)

val of_lowering :
  name:string ->
  prover:(Instance.t -> Bitstring.t array option) ->
  'dec lowering ->
  t
(** A scheme from its prover and its verifier's lowering. *)

val flat_lowering : flat -> int array lowering
(** A plane-backed lowering whose boxed value is its row: the derived
    [decode] allocates a [width]-int row and [read]s into it, and the
    derived [check] copies each neighbor's row into a scratch plane
    and runs [check_flat] on it.  The compiled engine [read]s every
    certificate into whole-graph planes and runs [check_flat] there;
    {!verify}, the runtime's row check and the combinators' sub-checks
    run the derived [check] — one decode and one check function, so
    every path agrees on every verdict by construction. *)

val identity_src : int -> int array
(** A shared array whose first [n] entries are [0 .. n - 1]: the
    [src] of a 0-based slice.  Read-only; never write into it. *)

val decoded_neighbors :
  ids:int array ->
  src:int array ->
  decs:'a option array ->
  lo:int ->
  hi:int ->
  (int * 'a) list option
(** A [check]'s neighbor slice as an id-ascending [(id, value)] list,
    or [None] when any neighbor's decode is malformed — the first step
    of most checks over option-valued decodes. *)

type outcome = {
  accepted : bool;
  rejections : (int * string) list;  (** rejecting vertices with reasons *)
  max_bits : int;  (** size of the largest certificate in the run *)
}

val view_of : Instance.t -> Bitstring.t array -> int -> view
(** The radius-1 view of a vertex under a certificate assignment. *)

val run : ?early_exit:bool -> t -> Instance.t -> Bitstring.t array -> outcome
(** Execute {!verify} at every vertex.  With [~early_exit:true] the
    sweep stops at the first rejecting vertex, so [rejections] contains
    exactly one entry on rejection; [accepted] and [max_bits] are
    unaffected.  The default [false] reports every rejecting vertex. *)

val max_cert_bits : Bitstring.t array -> int
(** Size of the largest certificate in an assignment (the [max_bits]
    field of an {!outcome}): one int-compare loop, the one copy of this
    fold.  The compiled engine takes the same figure while it decodes
    ({!Localcert_engine.Vcompile.kernel}), so a warm sweep never runs
    it; {!run} and an uncompiled {!Localcert_engine.Engine.run_par}
    do. *)

val intern : t -> Bitstring.t array -> Bitstring.t array
(** The prover's certificates made ready to keep: the same array,
    physically, for a plane-backed lowering ([flat = Some _]), whose
    certificates are per-vertex by construction and written packed by
    its provers; {!Cert_store.intern_all}'s per-array dedupe for every
    other lowering.  Observation-equal either way.  {!certify}, the
    CLI's certify, [Handlers.prepare], [Recert] and
    [Runtime.execute] call it. *)

val certify : t -> Instance.t -> (Bitstring.t array * outcome) option
(** Prover then verifier; [None] if the prover declines.  The call is
    timed as [certify.<name>], its prover as {!prover_timer} and its
    sweep as {!verify_timer}. *)

val prover_timer : Metrics.timer
val verify_timer : Metrics.timer
(** ["prover"] and ["verify"]: {!certify} and the CLI's certify time
    their prover and verifier sweep under these. *)

val certificate_size : t -> Instance.t -> int option
(** Max certificate bits the prover uses on this instance ([None] if it
    declines) — the paper's measure of a certification. *)

val accepts_with : t -> Instance.t -> Bitstring.t array -> bool
(** [run] reduced to the global conjunction. *)

val record_cert_sizes : t -> Bitstring.t array -> unit
(** Feed every certificate's bit length into the per-scheme
    [scheme.<name>.cert_bits] telemetry histogram.  [certify] calls
    this itself; exposed for drivers that invoke the prover directly
    (the CLI). *)

val record_outcome : t -> outcome -> unit
(** Bump the per-scheme accept/reject/rejections telemetry counters
    ({!Localcert_obs.Metrics}) for a completed exhaustive sweep.  [run]
    calls this itself, except with [~early_exit:true] — under racing
    attack-trial pruning even the number of such sweeps is
    scheduling-dependent; it is exposed for alternative sweep
    implementations ({!Localcert_engine.Engine.run_par}) and for
    answers served from a stored outcome. *)

(** {1 Combinators} *)

val conjoin : name:string -> t -> t -> t
(** Certify both properties: certificates are length-prefixed pairs;
    each vertex runs both checks on the respective halves.  The
    decoded value is the pair of the two decodes, or malformed. *)

val disjoin : name:string -> t -> t -> t
(** Certify a disjunction: a selector bit (checked equal between
    neighbors, hence global by connectivity) says which scheme's
    certificate follows.  The decoded value is the selector plus the
    chosen scheme's decode. *)

val trivial : name:string -> (degree:int -> verdict) -> t
(** A scheme with empty certificates whose verdict the vertex's degree
    alone decides (e.g. "max degree ≤ 3").  Certificates decode to
    [()] and are never read. *)

(** Ahead-of-time compilation of lowered verifiers.

    Every scheme's verifier is a {!Scheme.lowering}: a total
    per-certificate decode stage and a check stage over pre-decoded
    values.  The interpreted oracle {!Scheme.verify} re-decodes every
    certificate at every vertex that sees it; this module decodes each
    vertex's certificate once, straight into its plane row
    (plane-backed lowerings), or each {e distinct} certificate once
    (boxed lowerings) and drives the check stage through flat
    precomputed arrays, which removes the per-vertex allocation churn
    that serializes parallel sweeps on the shared minor heap (DESIGN
    §5.5).  Verdict equality with {!Scheme.verify} is structural: both
    paths end in the same check function — reason strings included.
    For a plane-backed lowering that function is [check_flat], which
    the kernel runs on whole-graph planes and {!Scheme.verify} reaches
    through the [decode] and [check] that {!Scheme.flat_lowering}
    derives from [read] and [check_flat]. *)

val set_enabled : bool -> unit
(** Globally enable/disable compilation (default: enabled).  With it
    disabled, {!compile} returns [None] and every engine runs
    {!Scheme.verify}, the runtime's row checks included — the CLI's
    [--no-compiled]. *)

val is_enabled : unit -> bool

type kernel = {
  check : int -> Scheme.verdict;  (** vertex [v]'s verdict *)
  swap : int -> Bitstring.t -> int -> Scheme.verdict;
      (** [swap v c] decodes [c] once and is [check] with [v]'s
          certificate replaced by [c].  At [v] and its neighbors it
          checks a fresh copy of the vertex's row, so the kernel stays
          immutable and shared; elsewhere it is [check]. *)
  max_bits : int;
      (** {!Scheme.max_cert_bits} of the compiled certificates — the
          sweep outcome's [max_bits], taken while decoding so a warm
          sweep does not fold over the certificates again. *)
}
(** One compiled sweep: the per-vertex check, its variant with one
    certificate swapped, and the largest certificate's size. *)

val compile : Scheme.t -> Instance.t -> Bitstring.t array -> kernel option
(** [compile scheme inst certs] builds the per-vertex kernel for one
    sweep: id-ascending CSR rows of neighbor ids mirroring
    {!Scheme.view_of}.  Compilation reads every certificate once and
    takes [max_bits] in that same pass.  A plane-backed lowering
    ({!Scheme.flat_lowering}) reads each certificate once, straight
    into its row of an [n × width] own plane ({!Scheme.flat}'s
    [read]), and copies the rows into the [2m × width] neighbor plane
    the sweep streams.  A boxed lowering decodes once
    per distinct bitstring (so broadcast-heavy schemes decode a
    handful) into one value per vertex, which rows read through
    their neighbors' vertex indices ([src]).  [None] only when
    compilation is disabled; then callers run {!Scheme.verify}.

    [compile] keeps nothing, and its kernel holds decoded values, not
    [certs].  A caller that sweeps one assignment again and again
    keeps the kernel and hands it to [Engine.sweep], as a served
    prepared entry does.  The runtime does not compile; it checks its
    message plane's rows ([Network.checker]).

    Lowerings are total by contract; if one still raises, the
    exception propagates from [compile] (decode) or from the kernel
    (check), as it does from {!Scheme.run}.  The kernel itself is safe
    to call concurrently from several domains: compilation populated
    every shared structure before returning.

    Compilation is timed as a [vcompile.<scheme>] slice
    ({!Tracer.with_slice}). *)

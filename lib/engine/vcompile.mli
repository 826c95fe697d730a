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
    disabled, {!compile} returns the {!interpreted} kernel and every
    engine runs {!Scheme.verify}, the runtime's row checks included —
    the CLI's [--no-compiled]. *)

val is_enabled : unit -> bool

type kernel = {
  check : int -> Scheme.verdict;  (** vertex [v]'s verdict *)
  swap : int -> Bitstring.t -> int -> Scheme.verdict;
      (** [swap v c] is [check] with [v]'s certificate replaced by
          [c], defined on N[v] only: the verifier has radius 1, so
          elsewhere the verdict is [check]'s, and [Engine.recheck]
          calls it on N[v] alone.  A compiled kernel decodes [c] once;
          at [v] it checks [c]'s value against the kernel's own row (a
          loopless row never holds [v]), and at a neighbor a fresh
          copy of the neighbor's row with [v]'s slot taken from [c],
          so the kernel stays immutable and shared.  No work is
          proportional to [n]. *)
  max_bits : int;
      (** {!Scheme.max_cert_bits} of the kernel's certificates — the
          sweep outcome's [max_bits], taken while decoding (or, for
          the interpreted kernel, once when it is built) so a warm
          sweep does not fold over the certificates again. *)
}
(** One sweep's verifier, compiled or {!interpreted}: the per-vertex
    check, its variant with one certificate swapped, and the largest
    certificate's size. *)

val compile : Scheme.t -> Instance.t -> Bitstring.t array -> kernel
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
    their neighbors' vertex indices ([src]).  With compilation
    disabled it is [interpreted scheme inst certs].

    [compile] keeps nothing, and a compiled kernel holds decoded
    values, not [certs].  A caller that checks one assignment more than once
    keeps the kernel: a served prepared entry sweeps it once
    ([Engine.sweep]) and re-checks each flip on N[v]
    ([Engine.recheck]).  The runtime does not compile; it checks its
    message plane's rows ([Network.checker]).

    Lowerings are total by contract; if one still raises, the
    exception propagates from [compile] (decode) or from the kernel
    (check), as it does from {!Scheme.run}.  The kernel itself is safe
    to call concurrently from several domains: compilation populated
    every shared structure before returning.

    Compilation is timed as a [vcompile.<scheme>] slice
    ({!Tracer.with_slice}). *)

val interpreted : Scheme.t -> Instance.t -> Bitstring.t array -> kernel
(** [interpreted scheme inst certs] is the interpreted oracle as a
    kernel: [check v] is {!Scheme.verify} on [Scheme.view_of inst certs
    v]; [swap v c u] verifies [u]'s view with [v]'s certificate
    replaced by [c] (at [u = v] the view's own [cert], elsewhere every
    neighbor entry whose id is [v]'s); [max_bits] is
    {!Scheme.max_cert_bits}[ certs].  It decodes nothing up front and
    reads [certs] at every check, so [certs] must not change while the
    kernel is in use. *)

(** The scheme registry: one concrete instantiation of every scheme
    family the CLI exposes.

    The CLI's [--scheme] names are parameterized (treedepth bound,
    formula, automaton); this registry pins default parameters so
    that differential tests and benches can quantify "every scheme"
    without re-listing them.  Each entry also carries a generator of
    small random instances suited to the scheme (sizes at which its
    prover is fast), used by the qcheck suites. *)

type entry = {
  name : string;  (** the CLI-facing scheme name *)
  scheme : Scheme.t;
  instance : Localcert_util.Rng.t -> Instance.t;
      (** a small random instance (a mix of yes- and no-instances)
          on which the scheme is meaningful and its prover cheap *)
}

val all : entry list
(** One entry per CLI scheme family: spanning, acyclic, treedepth,
    kernel-mso, existential, universal, path-minor-free,
    tree-mso:perfect-matching, lcl:mis, depth2:dominating. *)

val find : string -> entry option

val summary : unit -> string list
(** One line per registered family — the registry name, plus the
    pinned default scheme's own name when it differs, tagged
    [[compiled]]: every scheme is a lowering, so every family takes
    the ahead-of-time compiled verifier path.  Shown by the CLI's
    [--version] banner. *)

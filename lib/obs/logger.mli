(** Leveled structured logging to stderr.

    Records are one logfmt line each —
    [level=info msg="prover done" scheme=spanning max_bits=14] — so
    they grep and parse trivially; emission is serialized under a
    mutex, so lines from parallel domains never interleave.  A line
    logged inside a {!Tracer.with_context} ends with
    [trace_id=<decimal>], the id its Perfetto slices carry.

    The level is controlled by the [LOCALCERT_LOG] environment
    variable ([off], [error], [warn], [info], [debug]; unset or
    unparsable means [off]) read lazily at the first logging decision,
    or programmatically via {!set_level} (e.g. from a [--log] CLI
    flag), which always wins over the environment.  With logging off,
    each call is a level comparison and a branch. *)

type level = Error | Warn | Info | Debug

val level_of_string : string -> (level option, string) result
(** ["off"] parses to [None]; level names are case-insensitive. *)

val level_to_string : level -> string

val set_level : level option -> unit
(** [None] disables all output. *)

val current_level : unit -> level option
(** The effective level (after consulting [LOCALCERT_LOG] if
    {!set_level} was never called). *)

val enabled : level -> bool
(** Would a record at this level be emitted? *)

val log : level -> ?fields:(string * string) list -> string -> unit
(** Emit one record if [enabled level].  Field values are quoted and
    escaped only when they contain spaces or quotes. *)

val err : ?fields:(string * string) list -> string -> unit
val warn : ?fields:(string * string) list -> string -> unit
val info : ?fields:(string * string) list -> string -> unit
val debug : ?fields:(string * string) list -> string -> unit

(** The repository's one JSON codec: a generic tree, a strict
    recursive-descent parser, a compact and a pretty renderer, and the
    strict-decoding kit every typed schema builds on.  It backs every
    JSON document the repository writes or strictly reads:
    - telemetry snapshots ([--metrics], {!Export});
    - runtime traces ([simulate --trace], [Localcert_runtime.Trace]);
    - Perfetto timelines ({!Tracer}, whose merge reader is lenient on
      purpose: foreign events have open field sets).

    The parser accepts exactly one JSON value, rejects trailing
    garbage and rejects number literals that are not finite floats.
    Schema-level strictness (exact field sets, ranges) is the caller's
    job on the returned tree, through the decoding kit below.  The
    number rendering is chosen so that render ∘ parse is a fixpoint:
    every float prints as the shortest decimal that reparses to the
    same bits, which is what lets tests compare re-rendered documents
    byte for byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!parse_exn}; the message includes a byte offset. *)

val parse : string -> (t, string) result

val parse_exn : string -> t
(** @raise Error on malformed input. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val num : float -> string
(** Canonical number rendering: integer-valued floats as integers,
    everything else as the shortest decimal that parses back to exactly
    the same float. *)

val int : int -> t
(** [Num] of an integer. *)

val render : t -> string
(** Compact canonical rendering of a whole tree (no insignificant
    whitespace, {!escape}d strings, {!num} scalars).  [parse ∘ render]
    is the identity on trees, so [render ∘ parse] is a fixpoint on
    rendered documents.
    @raise Invalid_argument on a non-finite [Num]. *)

val pretty : t -> string
(** The one layout for committed, diffable artifacts: 2-space indent,
    one object member or array element per line, arrays of scalars
    (and empty containers) on one line, trailing newline.  Scalars
    render as in {!render}, so [parse ∘ pretty] is the identity on
    trees and [pretty ∘ parse] is a fixpoint on pretty output.
    @raise Invalid_argument on a non-finite [Num]. *)

(** {2 Strict decoding}

    Helpers for decoding a parsed tree into a typed schema.  Each takes
    a context string used in its error message and raises {!Bad} on a
    shape or range violation; {!decode} turns that into an [Error]. *)

exception Bad of string

val field : (string * t) list -> string -> t
(** [field obj name] is the member [name] of [obj]; raises {!Bad}
    when it is missing. *)

val check_fields : (string * t) list -> string list -> string -> unit
(** [check_fields obj allowed ctx] rejects a member whose key is not in
    [allowed], and a key that appears twice. *)

val as_obj : string -> t -> (string * t) list
val as_arr : string -> t -> t list

val as_str : string -> t -> string
(** A non-empty string. *)

val as_nonneg : string -> t -> float

val as_int : string -> t -> int
(** An integer-valued number in the native int range [[-2^62, 2^62)]
    (larger floats such as [1e300] have no defined [int_of_float]). *)

val as_nonneg_int : string -> t -> int

val decode : (t -> 'a) -> string -> ('a, string) result
(** [decode f s] parses [s] and applies [f]; a parse {!Error} or a
    {!Bad} raised by [f] becomes [Error msg]. *)

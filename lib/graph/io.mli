(** Graph interchange: graph6, DOT, and plain edge lists.

    graph6 is the de-facto exchange format for small graphs (McKay's
    nauty suite); supporting it lets the CLI consume standard graph
    corpora.  DOT output is for eyeballing instances, elimination
    trees and tree decompositions. *)

val to_graph6 : Graph.t -> string
(** Standard graph6 (n ≤ 62 uses the 1-byte size; larger sizes use the
    4-byte form). *)

val of_graph6 : string -> (Graph.t, string) result
(** Parses a graph6 line (trailing newline tolerated). *)

val to_dot : ?labels:int array -> ?highlight:int list -> Graph.t -> string
(** Undirected DOT; [highlight] fills the listed vertices. *)

val to_edge_list : Graph.t -> string
(** ["n m\nu v\n…"] — the trivial format. *)

val of_edge_list : string -> (Graph.t, string) result
(** Token-based: header ["n m"] then [2m] whitespace-separated
    endpoints.  Builds the CSR in two counting passes over the text —
    no intermediate edge list.  The scanner reads bytes straight from
    a buffer (here, the whole string as one chunk).  Every token must
    fit in an [int]: one above [max_int] is [Error "integer out of
    range"], never a wrapped-around vertex. *)

val is_edge_list_header : string -> bool
(** Whether a file's first line reads as an edge-list header: unsigned
    decimal tokens separated by the scanner's whitespace (space, tab,
    CR, LF), at least one.  A graph6 line never does.  The CLI's
    [file:] graphs are sniffed with it. *)

val of_edge_list_file : string -> (Graph.t, string) result
(** Same format, scanner and errors, streamed from a file.  Each
    counting pass re-opens the file and refills one buffer
    {!chunk_size} bytes at a time, so the input never needs to fit in
    memory beyond the OS page cache.  About 4–5.5 M edges/s for a
    2×10⁵-edge list on a 2-core host, both passes and the CSR build
    included.  An unsigned token of at most 18 digits with whitespace
    after it in the same chunk is read in one loop; anything else
    (signs, longer tokens, tokens at a chunk's end) takes the general
    path, with the same values and errors. *)

val chunk_size : int
(** Bytes per refill of {!of_edge_list_file}'s buffer. *)

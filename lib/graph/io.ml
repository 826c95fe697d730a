(* graph6: size prefix (n, or 126 then 3 sextets for n <= 258047),
   then the upper triangle x(0,1) x(0,2) x(1,2) x(0,3) … packed into
   6-bit groups, each + 63.

   Both readers below build the CSR directly through Graph.of_iter's
   two counting passes: decoding is re-run per pass (pure reads over
   the input), so no per-edge tuple list is ever materialized — the
   peak cost of ingesting an n-vertex stream is the graph itself. *)

let to_graph6 g =
  let n = Graph.n g in
  let buf = Buffer.create (8 + (n * n / 12)) in
  if n <= 62 then Buffer.add_char buf (Char.chr (63 + n))
  else begin
    if n > 258047 then invalid_arg "Io.to_graph6: graph too large";
    Buffer.add_char buf (Char.chr 126);
    Buffer.add_char buf (Char.chr (63 + ((n lsr 12) land 63)));
    Buffer.add_char buf (Char.chr (63 + ((n lsr 6) land 63)));
    Buffer.add_char buf (Char.chr (63 + (n land 63)))
  end;
  let acc = ref 0 and filled = ref 0 in
  let flush_groups () =
    Buffer.add_char buf (Char.chr (63 + !acc));
    acc := 0;
    filled := 0
  in
  let push b =
    acc := (!acc lsl 1) lor (if b then 1 else 0);
    incr filled;
    if !filled = 6 then flush_groups ()
  in
  for col = 1 to n - 1 do
    for row = 0 to col - 1 do
      push (Graph.mem_edge g row col)
    done
  done;
  if !filled > 0 then begin
    acc := !acc lsl (6 - !filled);
    filled := 6;
    flush_groups ()
  end;
  Buffer.contents buf

let of_graph6 line =
  let line = String.trim line in
  let len = String.length line in
  let byte i =
    if i >= len then Error "truncated graph6"
    else
      let c = Char.code line.[i] - 63 in
      if c < 0 || c > 63 then Error "invalid graph6 character" else Ok c
  in
  let ( let* ) = Result.bind in
  let* n, start =
    let* b0 = byte 0 in
    if b0 < 63 then Ok (b0, 1)
    else
      let* b1 = byte 1 in
      let* b2 = byte 2 in
      let* b3 = byte 3 in
      Ok ((b1 lsl 12) lor (b2 lsl 6) lor b3, 4)
  in
  let bit_count = n * (n - 1) / 2 in
  let needed = (bit_count + 5) / 6 in
  if len - start < needed then Error "graph6 body too short"
  else if
    not
      (String.for_all
         (fun c -> Char.code c >= 63 && Char.code c <= 126)
         (String.sub line start (len - start)))
  then Error "invalid graph6 character"
  else begin
    let bit i =
      let group = Char.code line.[start + (i / 6)] - 63 in
      group land (1 lsl (5 - (i mod 6))) <> 0
    in
    match
      Graph.of_iter ~n (fun f ->
          let idx = ref 0 in
          for col = 1 to n - 1 do
            for row = 0 to col - 1 do
              if bit !idx then f row col;
              incr idx
            done
          done)
    with
    | g -> Ok g
    | exception Invalid_argument m -> Error m
  end

let to_dot ?labels ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph G {\n";
  List.iter
    (fun v ->
      let label =
        match labels with
        | Some a when a.(v) <> 0 -> Printf.sprintf " [label=\"%d:%d\"]" v a.(v)
        | _ -> ""
      in
      let fill =
        if List.mem v highlight then " [style=filled fillcolor=lightblue]"
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "  %d%s%s;\n" v label fill))
    (Graph.vertices g);
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_edge_list g =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* Whitespace-separated int scanner over a byte buffer.  Both
   edge-list readers share it: [of_edge_list] hands it the whole
   string as one pre-filled chunk, [of_edge_list_file] refills the
   buffer one [input] chunk at a time.  A scanner is created per
   counting pass, so a pass is one forward scan that never looks back
   further than the current byte. *)

type scanner = {
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  refill : Bytes.t -> int;  (** fills [buf] from 0; 0 at end of input *)
}

let[@inline] is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n'
let[@inline] is_digit c = c >= '0' && c <= '9'

(* True iff a byte is available at [s.pos], refilling if needed. *)
let[@inline] more s =
  s.pos < s.len
  ||
  let k = s.refill s.buf in
  s.pos <- 0;
  s.len <- k;
  k > 0

(* graph6 bytes lie in 63..126, so no graph6 line is made of digits
   and whitespace alone. *)
let is_edge_list_header line =
  String.exists is_digit line
  && String.for_all (fun c -> is_digit c || is_ws c) line

let skip_ws s =
  let continue = ref true in
  while !continue do
    let buf = s.buf and len = s.len in
    let p = ref s.pos in
    while !p < len && is_ws (Bytes.unsafe_get buf !p) do
      incr p
    done;
    s.pos <- !p;
    continue := !p >= len && more s
  done

let max_div10 = max_int / 10
let max_mod10 = max_int mod 10

(* The common token, read in one loop over the current chunk: unsigned,
   at most [fast_digits] digits (so it cannot overflow: 10^18 - 1 <
   max_int) and followed by whitespace inside the chunk.  Returns -1,
   with [s.pos] untouched, for anything else: a sign, a longer token, a
   stray byte, or a token that runs to the chunk's end (whose next byte
   a refill must supply). *)
let fast_digits = 18

let read_fast s =
  let buf = s.buf and p0 = s.pos and len = s.len in
  let stop = if len - p0 > fast_digits then p0 + fast_digits else len in
  let v = ref 0 and p = ref p0 in
  while !p < stop && is_digit (Bytes.unsafe_get buf !p) do
    v := (!v * 10) + (Char.code (Bytes.unsafe_get buf !p) - Char.code '0');
    incr p
  done;
  if !p > p0 && !p < len && is_ws (Bytes.unsafe_get buf !p) then begin
    s.pos <- !p;
    !v
  end
  else -1

(* A token from its first byte, across refills, with the sign and the
   overflow check. *)
let read_slow s ~err =
  let neg = Bytes.unsafe_get s.buf s.pos = '-' in
  if neg then begin
    s.pos <- s.pos + 1;
    if not (more s) then failwith err
  end;
  if not (is_digit (Bytes.unsafe_get s.buf s.pos)) then failwith err;
  let v = ref 0 and continue = ref true in
  while !continue do
    let buf = s.buf and len = s.len in
    let p = ref s.pos in
    while !p < len && is_digit (Bytes.unsafe_get buf !p) do
      let d = Char.code (Bytes.unsafe_get buf !p) - Char.code '0' in
      if !v >= max_div10 && (!v > max_div10 || d > max_mod10) then
        failwith "integer out of range";
      v := (!v * 10) + d;
      incr p
    done;
    s.pos <- !p;
    continue := !p >= len && more s
  done;
  if more s && not (is_ws (Bytes.unsafe_get s.buf s.pos)) then failwith err;
  if neg then - !v else !v

(* One token: optional '-', then digits, ended by whitespace or end of
   input.  A missing token or a stray byte fails with [err]; a
   magnitude above [max_int] fails with "integer out of range" rather
   than wrapping.  [read_fast] takes the common case and [read_slow]
   the rest, so both paths give the same value or the same error. *)
let read_int s ~err =
  skip_ws s;
  if not (more s) then failwith err;
  let v = read_fast s in
  if v >= 0 then v else read_slow s ~err

(* Parses "n m" then m edges from a fresh scanner per pass.
   [scanner ()] must yield the same bytes on every call. *)
let edge_list_of_scanner scanner =
  let header s =
    skip_ws s;
    if not (more s) then failwith "empty input";
    let n = read_int s ~err:"bad header" in
    let m = read_int s ~err:"bad header" in
    if n < 0 || m < 0 then failwith "bad header";
    (n, m)
  in
  match
    let n, m = header (scanner ()) in
    Graph.of_iter ~n (fun f ->
        let s = scanner () in
        let _ = header s in
        for _ = 1 to m do
          let a = read_int s ~err:"edge count mismatch" in
          let b = read_int s ~err:"edge count mismatch" in
          f a b
        done;
        skip_ws s;
        if more s then failwith "edge count mismatch")
  with
  | g -> Ok g
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let of_edge_list text =
  edge_list_of_scanner (fun () ->
      {
        buf = Bytes.unsafe_of_string text;
        pos = 0;
        len = String.length text;
        refill = (fun _ -> 0);
      })

let chunk_size = 65536

let of_edge_list_file path =
  (* Each counting pass re-opens the file: sequential chunked scans,
     so a multi-gigabyte edge list never needs to fit in memory. *)
  let run () =
    let channels = ref [] in
    let scanner () =
      let ic = open_in_bin path in
      channels := ic :: !channels;
      {
        buf = Bytes.create chunk_size;
        pos = 0;
        len = 0;
        refill = (fun b -> input ic b 0 (Bytes.length b));
      }
    in
    Fun.protect
      ~finally:(fun () -> List.iter close_in_noerr !channels)
      (fun () -> edge_list_of_scanner scanner)
  in
  match run () with
  | r -> r
  | exception Sys_error msg -> Error msg

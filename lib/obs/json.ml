type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Canonical number rendering: integers as integers, everything else
   as the shortest decimal that parses back to exactly the same float.
   Exact round-tripping makes render ∘ parse a fixpoint (artifact-guard
   tests rely on it): a lossy rendering could reparse to an
   integer-valued float and flip formatting branches. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

let parse_exn s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              Buffer.add_char b '"';
              advance ();
              go ()
          | Some '\\' ->
              Buffer.add_char b '\\';
              advance ();
              go ()
          | Some '/' ->
              Buffer.add_char b '/';
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char b '\r';
              advance ();
              go ()
          | Some 'b' ->
              Buffer.add_char b '\b';
              advance ();
              go ()
          | Some 'f' ->
              Buffer.add_char b '\012';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* ASCII only; anything above is replaced — our schemas
                 never emit non-ASCII. *)
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail (Printf.sprintf "number %S is not a finite float" text)
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Error msg -> Error msg

let int i = Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* [num] stays total (the trace validator formats arbitrary floats
   with it), so the document renderers check finiteness themselves:
   [inf]/[nan] are not JSON, and a renderer that wrote them would
   hand consumers a file no parser accepts. *)
let add_num b f =
  if not (Float.is_finite f) then
    invalid_arg ("Json: non-finite number " ^ string_of_float f);
  Buffer.add_string b (num f)

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

let add_sep b sep f l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      f x)
    l

(* Compact canonical rendering of a whole tree.  Paired with [escape]
   and [num], parse ∘ render is the identity on trees, which gives
   every artifact built on this module (trace JSON included) the
   render ∘ parse fixpoint property without per-schema renderers. *)
let rec add_compact b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_num b f
  | Str s -> add_str b s
  | Arr l ->
      Buffer.add_char b '[';
      add_sep b "," (add_compact b) l;
      Buffer.add_char b ']'
  | Obj o ->
      Buffer.add_char b '{';
      add_sep b ","
        (fun (k, x) ->
          add_str b k;
          Buffer.add_char b ':';
          add_compact b x)
        o;
      Buffer.add_char b '}'

let render v =
  let b = Buffer.create 1024 in
  add_compact b v;
  Buffer.contents b

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

let pretty v =
  let b = Buffer.create 1024 in
  let rec go indent = function
    | Arr l when List.for_all is_scalar l ->
        Buffer.add_char b '[';
        add_sep b ", " (add_compact b) l;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Arr l -> block indent '[' ']' go l
    | Obj o ->
        block indent '{' '}'
          (fun inner (k, x) ->
            add_str b k;
            Buffer.add_string b ": ";
            go inner x)
          o
    | v -> add_compact b v
  (* [items] is non-empty: empty containers render on one line above *)
  and block :
        'a. string -> char -> char -> (string -> 'a -> unit) -> 'a list -> unit
      =
   fun indent opening closing f items ->
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    Buffer.add_string b ("\n" ^ inner);
    add_sep b (",\n" ^ inner) (f inner) items;
    Buffer.add_string b ("\n" ^ indent);
    Buffer.add_char b closing
  in
  go "" v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Strict decoding                                                     *)

exception Bad of string

let field obj name =
  match List.assoc_opt name obj with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" name))

(* A repeated key would otherwise be silently resolved by
   [List.assoc_opt] to its first occurrence. *)
let check_fields obj allowed ctx =
  let rec go seen = function
    | [] -> ()
    | (k, _) :: rest ->
        if not (List.mem k allowed) then
          raise (Bad (Printf.sprintf "unexpected field %S in %s" k ctx));
        if List.mem k seen then
          raise (Bad (Printf.sprintf "duplicate field %S in %s" k ctx));
        go (k :: seen) rest
  in
  go [] obj

let as_obj ctx = function
  | Obj o -> o
  | _ -> raise (Bad (ctx ^ ": expected an object"))

let as_arr ctx = function
  | Arr a -> a
  | _ -> raise (Bad (ctx ^ ": expected an array"))

let as_str ctx = function
  | Str s when s <> "" -> s
  | Str _ -> raise (Bad (ctx ^ ": empty string"))
  | _ -> raise (Bad (ctx ^ ": expected a string"))

let as_num ctx = function
  | Num f -> f
  | _ -> raise (Bad (ctx ^ ": expected a number"))

let as_nonneg ctx v =
  let f = as_num ctx v in
  if f < 0. then raise (Bad (ctx ^ ": negative"));
  f

let as_int ctx v =
  let f = as_num ctx v in
  if not (Float.is_integer f) then raise (Bad (ctx ^ ": expected an integer"));
  (* [Float.is_integer] admits values like 2^62 or 1e300 whose
     [int_of_float] is undefined; native ints cover [-2^62, 2^62).
     -2^62 is exactly representable and equals [min_int], so only
     values strictly below it are out of range. *)
  if f >= 0x1p62 || f < -0x1p62 then
    raise (Bad (ctx ^ ": integer overflows the native int range"));
  int_of_float f

let as_nonneg_int ctx v =
  let i = as_int ctx v in
  if i < 0 then raise (Bad (ctx ^ ": negative"));
  i

let decode f s =
  match f (parse_exn s) with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Error msg -> Error msg

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok None
  | "error" -> Ok (Some Error)
  | "warn" | "warning" -> Ok (Some Warn)
  | "info" -> Ok (Some Info)
  | "debug" -> Ok (Some Debug)
  | other ->
      Error
        (Printf.sprintf "unknown log level %S (expected off, error, warn, info \
                         or debug)" other)

(* Effective level: an explicit [set_level] wins; otherwise the
   environment is consulted once, at the first logging decision. *)
type state = Unset | Set of level option

let state = Atomic.make Unset
let set_level l = Atomic.set state (Set l)

let current_level () =
  match Atomic.get state with
  | Set l -> l
  | Unset ->
      let l =
        match Sys.getenv_opt "LOCALCERT_LOG" with
        | None -> None
        | Some s -> ( match level_of_string s with Ok l -> l | Error _ -> None)
      in
      (* a racing first-reader computes the same value *)
      Atomic.set state (Set l);
      l

let enabled l =
  match current_level () with
  | None -> false
  | Some cap -> severity l <= severity cap

let needs_quoting v =
  v = ""
  || String.exists
       (fun c -> c = ' ' || c = '"' || c = '=' || c = '\n' || c = '\t')
       v

let emit_mutex = Mutex.create ()

let log l ?(fields = []) msg =
  if enabled l then begin
    let b = Buffer.create 80 in
    Buffer.add_string b "level=";
    Buffer.add_string b (level_to_string l);
    Buffer.add_string b " msg=\"";
    Buffer.add_string b (Json.escape msg);
    Buffer.add_char b '"';
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        if needs_quoting v then begin
          Buffer.add_char b '"';
          Buffer.add_string b (Json.escape v);
          Buffer.add_char b '"'
        end
        else Buffer.add_string b v)
      fields;
    (match Tracer.current_context () with
    | Some id ->
        Buffer.add_string b " trace_id=";
        Buffer.add_string b (string_of_int id)
    | None -> ());
    Buffer.add_char b '\n';
    Mutex.protect emit_mutex (fun () ->
        output_string stderr (Buffer.contents b);
        flush stderr)
  end

let err ?fields msg = log Error ?fields msg
let warn ?fields msg = log Warn ?fields msg
let info ?fields msg = log Info ?fields msg
let debug ?fields msg = log Debug ?fields msg

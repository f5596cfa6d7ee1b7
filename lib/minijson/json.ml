type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) j =
  let b = Buffer.create 256 in
  let indent n = if pretty then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char b '\n' in
  let rec go depth j =
    match j with
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Number f -> Buffer.add_string b (number_to_string f)
    | String s -> escape_string b s
    | Array [] -> Buffer.add_string b "[]"
    | Array items ->
        Buffer.add_char b '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then (Buffer.add_char b ','; newline ());
            indent (depth + 1);
            go (depth + 1) item)
          items;
        newline ();
        indent depth;
        Buffer.add_char b ']'
    | Object [] -> Buffer.add_string b "{}"
    | Object members ->
        Buffer.add_char b '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then (Buffer.add_char b ','; newline ());
            indent (depth + 1);
            escape_string b k;
            Buffer.add_string b (if pretty then ": " else ":");
            go (depth + 1) v)
          members;
        newline ();
        indent depth;
        Buffer.add_char b '}'
  in
  go 0 j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The parser scans [src] by index: a character test never builds an
   option, and a string without escapes is copied out with one
   [String.sub]. *)
type state = { src : string; mutable pos : int }

(* Internal located reject; converted to {!Parse_error} (message form)
   or [Error (offset, reason)] (structured form) at the entry points. *)
exception Located of int * string

let error st msg = raise (Located (st.pos, msg))

let at_end st = st.pos >= String.length st.src

(* The current character; only called when [not (at_end st)]. *)
let current st = String.unsafe_get st.src st.pos

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while !i < n && (match String.unsafe_get src !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    incr i
  done;
  st.pos <- !i

let expect st c =
  if (not (at_end st)) && Char.equal (current st) c then advance st
  else error st (Printf.sprintf "expected %c" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.equal (String.sub st.src st.pos n) word then (
    st.pos <- st.pos + n;
    value)
  else error st (Printf.sprintf "expected %s" word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let s = String.sub st.src st.pos 4 in
  st.pos <- st.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some n -> n
  | None -> error st "bad \\u escape"

(* Encode a Unicode scalar value as UTF-8. *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
  else if cp < 0x10000 then (
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
  else (
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))

(* Advance past a run of characters that need no decoding. *)
let skip_plain st =
  let src = st.src in
  let n = String.length src in
  let i = ref st.pos in
  while !i < n && (match String.unsafe_get src !i with '"' | '\\' -> false | _ -> true) do
    incr i
  done;
  st.pos <- !i

(* Decode one escape sequence, [st.pos] just past its backslash. *)
let add_escape st b =
  if at_end st then error st "unterminated escape";
  let c = current st in
  advance st;
  match c with
  | '"' -> Buffer.add_char b '"'
  | '\\' -> Buffer.add_char b '\\'
  | '/' -> Buffer.add_char b '/'
  | 'n' -> Buffer.add_char b '\n'
  | 't' -> Buffer.add_char b '\t'
  | 'r' -> Buffer.add_char b '\r'
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'u' ->
      let hi = parse_hex4 st in
      if hi >= 0xD800 && hi <= 0xDBFF then (
        (* surrogate pair *)
        expect st '\\';
        expect st 'u';
        let lo = parse_hex4 st in
        if lo < 0xDC00 || lo > 0xDFFF then error st "invalid low surrogate";
        add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)))
      else add_utf8 b hi
  | _ -> error st "bad escape character"

let parse_string st =
  expect st '"';
  let start = st.pos in
  skip_plain st;
  if at_end st then error st "unterminated string";
  if Char.equal (current st) '"' then (
    advance st;
    String.sub st.src start (st.pos - 1 - start))
  else begin
    (* An escape: decode the rest of the body character by character. *)
    let src = st.src in
    let n = String.length src in
    let b = Buffer.create (2 * (st.pos - start) + 64) in
    Buffer.add_substring b src start (st.pos - start);
    let rec loop i =
      if i >= n then (
        st.pos <- i;
        error st "unterminated string")
      else
        match String.unsafe_get src i with
        | '"' ->
            st.pos <- i + 1;
            Buffer.contents b
        | '\\' ->
            st.pos <- i + 1;
            add_escape st b;
            loop st.pos
        | c ->
            Buffer.add_char b c;
            loop (i + 1)
    in
    loop st.pos
  end

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  while
    st.pos < n
    && match current st with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> error st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  if at_end st then error st "unexpected end of input";
  match current st with
  | '{' -> parse_object st
  | '[' -> parse_array st
  | '"' -> String (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> error st (Printf.sprintf "unexpected character %C" c)

(* After an object member or array item: [true] on a comma, [false] on
   the closing bracket [close], both consumed. *)
and next_or_close st ~close ~what =
  skip_ws st;
  if at_end st then error st what
  else
    match current st with
    | ',' ->
        advance st;
        true
    | c when Char.equal c close ->
        advance st;
        false
    | _ -> error st what

and parse_object st =
  expect st '{';
  skip_ws st;
  if (not (at_end st)) && Char.equal (current st) '}' then (
    advance st;
    Object [])
  else
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let acc = (key, parse_value st) :: acc in
      if next_or_close st ~close:'}' ~what:"expected , or } in object" then members acc
      else Object (List.rev acc)
    in
    members []

and parse_array st =
  expect st '[';
  skip_ws st;
  if (not (at_end st)) && Char.equal (current st) ']' then (
    advance st;
    Array [])
  else
    let rec items acc =
      let acc = parse_value st :: acc in
      if next_or_close st ~close:']' ~what:"expected , or ] in array" then items acc
      else Array (List.rev acc)
    in
    items []

let parse_document st =
  let v = parse_value st in
  skip_ws st;
  if not (at_end st) then error st "trailing garbage";
  v

let of_string_located s =
  let st = { src = s; pos = 0 } in
  match parse_document st with
  | v -> Ok v
  | exception Located (offset, reason) -> Error (offset, reason)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_document st with
  | v -> v
  | exception Located (offset, reason) ->
      raise (Parse_error (Printf.sprintf "%s at offset %d" reason offset))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Object members -> ( match List.assoc_opt key members with Some v -> v | None -> Null)
  | _ -> invalid_arg "Json.member: not an object"

let mem key = function
  | Object members -> List.mem_assoc key members
  | _ -> invalid_arg "Json.mem: not an object"

let to_assoc = function Object members -> members | _ -> invalid_arg "Json.to_assoc: not an object"
let to_list = function Array items -> items | _ -> invalid_arg "Json.to_list: not an array"
let to_str = function String s -> s | _ -> invalid_arg "Json.to_str: not a string"
let to_number = function Number f -> f | _ -> invalid_arg "Json.to_number: not a number"

let to_int = function
  | Number f when Float.is_integer f -> int_of_float f
  | _ -> invalid_arg "Json.to_int: not an integer"

let to_bool = function Bool b -> b | _ -> invalid_arg "Json.to_bool: not a boolean"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Number x, Number y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Array xs, Array ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Object xs, Object ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v') xs ys
  | (Null | Bool _ | Number _ | String _ | Array _ | Object _), _ -> false

let pp ppf j = Format.pp_print_string ppf (to_string ~pretty:true j)

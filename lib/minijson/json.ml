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

(* For each byte, the letter after the backslash that escapes it:
   ['\000'] for a byte that passes through, ['u'] for one written
   [\u00XX]. *)
let escape_letters =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' -> '"'
      | '\\' -> '\\'
      | '\n' -> 'n'
      | '\r' -> 'r'
      | '\t' -> 't'
      | '\b' -> 'b'
      | '\012' -> 'f'
      | '\000' .. '\031' -> 'u'
      | _ -> '\000')

let escape_letter c = String.unsafe_get escape_letters (Char.code c)

(* One pass into bytes sized for the worst two-byte escape, copied into
   [b] once.  Graph payloads are strings with a quote every few bytes,
   and a [Buffer] call per byte cost twice this.  A control byte
   spelled [\u00XX] goes straight to [b] after the bytes before it, and
   the bytes are reused from the start: they keep room for two bytes
   per byte still to read. *)
let escape_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let rec plain i =
    if i < n && Char.equal (escape_letter (String.unsafe_get s i)) '\000' then plain (i + 1) else i
  in
  let first = plain 0 in
  if first = n then Buffer.add_string b s
  else begin
    let out = Bytes.create (first + (2 * (n - first))) in
    Bytes.blit_string s 0 out 0 first;
    let rec go i j =
      if i >= n then Buffer.add_subbytes b out 0 j
      else
        let c = String.unsafe_get s i in
        match escape_letter c with
        | '\000' ->
            Bytes.unsafe_set out j c;
            go (i + 1) (j + 1)
        | 'u' ->
            Buffer.add_subbytes b out 0 j;
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
            go (i + 1) 0
        | e ->
            Bytes.unsafe_set out j '\\';
            Bytes.unsafe_set out (j + 1) e;
            go (i + 1) (j + 2)
    in
    go first first
  end;
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
   [String.sub].  A string with escapes is decoded into [scratch], which
   grows by doubling and is reused by the document's later strings. *)
type state = { src : string; mutable pos : int; mutable scratch : Bytes.t }

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

(* Make [st.scratch] hold at least [need] bytes, keeping its first
   [len]. *)
let reserve st len need =
  if need > Bytes.length st.scratch then begin
    let grown = Bytes.create (max need (2 * Bytes.length st.scratch)) in
    Bytes.blit st.scratch 0 grown 0 len;
    st.scratch <- grown
  end

(* Write the UTF-8 encoding of the Unicode scalar value [cp] at [j] in
   [st.scratch]; the index past it. *)
let put_utf8 st j cp =
  reserve st j (j + 4);
  let set k byte = Bytes.unsafe_set st.scratch k (Char.unsafe_chr byte) in
  if cp < 0x80 then (
    set j cp;
    j + 1)
  else if cp < 0x800 then (
    set j (0xC0 lor (cp lsr 6));
    set (j + 1) (0x80 lor (cp land 0x3F));
    j + 2)
  else if cp < 0x10000 then (
    set j (0xE0 lor (cp lsr 12));
    set (j + 1) (0x80 lor ((cp lsr 6) land 0x3F));
    set (j + 2) (0x80 lor (cp land 0x3F));
    j + 3)
  else (
    set j (0xF0 lor (cp lsr 18));
    set (j + 1) (0x80 lor ((cp lsr 12) land 0x3F));
    set (j + 2) (0x80 lor ((cp lsr 6) land 0x3F));
    set (j + 3) (0x80 lor (cp land 0x3F));
    j + 4)

(* The index of the first ['"'] or ['\\'] in [src] from [i], or [n]. *)
let rec plain_end src i n =
  if i < n && match String.unsafe_get src i with '"' | '\\' -> false | _ -> true then
    plain_end src (i + 1) n
  else i

(* The byte a one-letter escape stands for, ['\000'] for a letter
   that is not one. *)
let unescape_letter = function
  | ('"' | '\\' | '/') as c -> c
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | _ -> '\000'

(* Decode a [\u] escape, [st.pos] just past its [u], into [st.scratch]
   at [j]; the index past the decoded bytes. *)
let add_unicode st j =
  let hi = parse_hex4 st in
  if hi >= 0xD800 && hi <= 0xDBFF then (
    (* surrogate pair *)
    expect st '\\';
    expect st 'u';
    let lo = parse_hex4 st in
    if lo < 0xDC00 || lo > 0xDFFF then error st "invalid low surrogate";
    put_utf8 st j (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)))
  else put_utf8 st j hi

let parse_string st =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let first = plain_end src start n in
  if first < n && Char.equal (String.unsafe_get src first) '"' then (
    st.pos <- first + 1;
    String.sub src start (first - start))
  else begin
    (* Decode byte by byte to [j] in [out], which is [st.scratch]
       passed along; one-letter escapes are decoded here, [\u] ones by
       [add_unicode]. *)
    let rec go out i j =
      if j + 4 > Bytes.length out then begin
        reserve st j (j + 4);
        go st.scratch i j
      end
      else if i >= n then (
        st.pos <- n;
        error st "unterminated string")
      else
        match String.unsafe_get src i with
        | '"' ->
            st.pos <- i + 1;
            Bytes.sub_string out 0 j
        | '\\' ->
            if i + 1 >= n then (
              st.pos <- n;
              error st "unterminated escape")
            else (
              match String.unsafe_get src (i + 1) with
              | 'u' ->
                  st.pos <- i + 2;
                  let j = add_unicode st j in
                  go st.scratch st.pos j
              | c ->
                  let decoded = unescape_letter c in
                  if Char.equal decoded '\000' then (
                    st.pos <- i + 2;
                    error st "bad escape character");
                  Bytes.unsafe_set out j decoded;
                  go out (i + 2) (j + 1))
        | c ->
            Bytes.unsafe_set out j c;
            go out (i + 1) (j + 1)
    in
    reserve st 0 (first - start + 4);
    Bytes.blit_string src start st.scratch 0 (first - start);
    go st.scratch first (first - start)
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
  let st = { src = s; pos = 0; scratch = Bytes.empty } in
  match parse_document st with
  | v -> Ok v
  | exception Located (offset, reason) -> Error (offset, reason)

let of_string s =
  let st = { src = s; pos = 0; scratch = Bytes.empty } in
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

type term =
  | Sym of string
  | Str of string
  | Int of int

type t = { pred : string; args : term list }

let make pred args = { pred; args }

let equal_term a b =
  match (a, b) with
  | Sym x, Sym y | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | (Sym _ | Str _ | Int _), _ -> false

let compare_term a b =
  let rank = function Sym _ -> 0 | Str _ -> 1 | Int _ -> 2 in
  match (a, b) with
  | Sym x, Sym y | Str x, Str y -> String.compare x y
  | Int x, Int y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b =
  String.equal a.pred b.pred && List.equal equal_term a.args b.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare compare_term a.args b.args

let add_quoted b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\n') as c ->
        Buffer.add_substring b s !run (i - !run);
        Buffer.add_char b '\\';
        Buffer.add_char b (if Char.equal c '\n' then 'n' else c);
        run := i + 1
    | _ -> ()
  done;
  Buffer.add_substring b s !run (n - !run);
  Buffer.add_char b '"'

let term_to_string = function
  | Sym s -> s
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      add_quoted b s;
      Buffer.contents b
  | Int n -> string_of_int n

let to_string f =
  Printf.sprintf "%s(%s)." f.pred (String.concat "," (List.map term_to_string f.args))

let pp ppf f = Format.pp_print_string ppf (to_string f)

let is_bare s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let sym_of_string s = if is_bare s then Sym s else Str s

let string_of_term = function
  | Sym s | Str s -> s
  | Int n -> string_of_int n

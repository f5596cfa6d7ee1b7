module Fact = Datalog.Fact

exception Parse_error of string

type token =
  | Tident of string  (** lowercase identifier *)
  | Tvar of string  (** uppercase identifier *)
  | Tany
  | Tstring of string
  | Tint of int
  | Tlbrace
  | Trbrace
  | Tlparen
  | Trparen
  | Tcomma
  | Tdot
  | Tcolon
  | Tcolondash
  | Teq
  | Tneq
  | Tat
  | Tminimize
  | Tshow
  | Tslash

let token_to_string = function
  | Tident s -> s
  | Tvar s -> s
  | Tany -> "_"
  | Tstring s -> Printf.sprintf "%S" s
  | Tint n -> string_of_int n
  | Tlbrace -> "{"
  | Trbrace -> "}"
  | Tlparen -> "("
  | Trparen -> ")"
  | Tcomma -> ","
  | Tdot -> "."
  | Tat -> "@"
  | Tcolon -> ":"
  | Tcolondash -> ":-"
  | Teq -> "="
  | Tneq -> "<>"
  | Tminimize -> "#minimize"
  | Tshow -> "#show"
  | Tslash -> "/"

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let emit t = tokens := t :: !tokens in
  while !pos < n do
    let c = src.[!pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '%' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
    | '{' -> emit Tlbrace; incr pos
    | '}' -> emit Trbrace; incr pos
    | '(' -> emit Tlparen; incr pos
    | ')' -> emit Trparen; incr pos
    | ',' -> emit Tcomma; incr pos
    | '.' -> emit Tdot; incr pos
    | '@' -> emit Tat; incr pos
    | '/' when not (!pos + 1 < n && src.[!pos + 1] = '/') -> emit Tslash; incr pos
    | '=' -> emit Teq; incr pos
    | '<' ->
        if !pos + 1 < n && src.[!pos + 1] = '>' then (
          emit Tneq;
          pos := !pos + 2)
        else fail "expected <>"
    | ':' ->
        if !pos + 1 < n && src.[!pos + 1] = '-' then (
          emit Tcolondash;
          pos := !pos + 2)
        else (
          emit Tcolon;
          incr pos)
    | '#' ->
        let start = !pos in
        incr pos;
        while
          !pos < n && match src.[!pos] with 'a' .. 'z' -> true | _ -> false
        do
          incr pos
        done;
        let word = String.sub src start (!pos - start) in
        if String.equal word "#minimize" then emit Tminimize
        else if String.equal word "#show" then emit Tshow
        else fail (Printf.sprintf "unknown directive %s" word)
    | '"' ->
        incr pos;
        let b = Buffer.create 16 in
        let rec loop () =
          if !pos >= n then fail "unterminated string"
          else
            match src.[!pos] with
            | '"' -> incr pos
            | '\\' ->
                incr pos;
                if !pos >= n then fail "unterminated escape";
                (match src.[!pos] with
                | 'n' -> Buffer.add_char b '\n'
                | c -> Buffer.add_char b c);
                incr pos;
                loop ()
            | c ->
                Buffer.add_char b c;
                incr pos;
                loop ()
        in
        loop ();
        emit (Tstring (Buffer.contents b))
    | '0' .. '9' | '-' ->
        let start = !pos in
        if c = '-' then incr pos;
        while !pos < n && (match src.[!pos] with '0' .. '9' -> true | _ -> false) do
          incr pos
        done;
        let s = String.sub src start (!pos - start) in
        (match int_of_string_opt s with
        | Some v -> emit (Tint v)
        | None -> fail (Printf.sprintf "bad integer %S" s))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !pos in
        while
          !pos < n
          && match src.[!pos] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
        do
          incr pos
        done;
        let word = String.sub src start (!pos - start) in
        if String.equal word "_" then emit Tany
        else (
          match word.[0] with
          | 'A' .. 'Z' -> emit (Tvar word)
          | '_' -> emit (Tvar word)  (* _Named variables behave as variables *)
          | _ -> emit (Tident word))
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !tokens

(* Recursive-descent parsing over the token list. *)

type stream = { mutable toks : token list }

let fail_at st msg =
  let ctx =
    match st.toks with
    | [] -> "end of input"
    | ts ->
        let shown = List.filteri (fun i _ -> i < 5) ts in
        String.concat " " (List.map token_to_string shown)
  in
  raise (Parse_error (Printf.sprintf "%s (at: %s)" msg ctx))

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail_at st "unexpected end of input"
  | t :: rest ->
      st.toks <- rest;
      t

let expect st t =
  let got = next st in
  if got <> t then fail_at st (Printf.sprintf "expected %s, got %s" (token_to_string t) (token_to_string got))

let parse_term st =
  match next st with
  | Tvar v -> Term.Var v
  | Tany -> Term.Any
  | Tident s -> Term.Con (Fact.Sym s)
  | Tstring s -> Term.Con (Fact.Str s)
  | Tint v -> Term.Con (Fact.Int v)
  | t -> fail_at st (Printf.sprintf "expected term, got %s" (token_to_string t))

let parse_atom_args st =
  match peek st with
  | Some Tlparen ->
      ignore (next st);
      let rec loop acc =
        let t = parse_term st in
        match next st with
        | Tcomma -> loop (t :: acc)
        | Trparen -> List.rev (t :: acc)
        | tok -> fail_at st (Printf.sprintf "expected , or ) got %s" (token_to_string tok))
      in
      loop []
  | _ -> []

let parse_atom st pred = { Rule.pred; args = parse_atom_args st }

(* A literal is [not atom], an atom, or a builtin comparison.  An
   identifier may begin either an atom or (as a constant) a builtin;
   disambiguate by what follows. *)
let parse_literal st =
  match next st with
  | Tident "not" -> (
      match next st with
      | Tident p -> Rule.Neg (parse_atom st p)
      | t -> fail_at st (Printf.sprintf "expected atom after not, got %s" (token_to_string t)))
  | Tident p -> (
      match peek st with
      | Some Tlparen -> Rule.Pos (parse_atom st p)
      | Some Tneq ->
          ignore (next st);
          Rule.Builtin (Rule.Neq (Term.Con (Fact.Sym p), parse_term st))
      | Some Teq ->
          ignore (next st);
          Rule.Builtin (Rule.Eq (Term.Con (Fact.Sym p), parse_term st))
      | _ -> Rule.Pos { Rule.pred = p; args = [] })
  | Tvar v -> (
      match next st with
      | Tneq -> Rule.Builtin (Rule.Neq (Term.Var v, parse_term st))
      | Teq -> Rule.Builtin (Rule.Eq (Term.Var v, parse_term st))
      | t -> fail_at st (Printf.sprintf "expected <> or = after variable, got %s" (token_to_string t)))
  | Tint x -> (
      match next st with
      | Tneq -> Rule.Builtin (Rule.Neq (Term.Con (Fact.Int x), parse_term st))
      | Teq -> Rule.Builtin (Rule.Eq (Term.Con (Fact.Int x), parse_term st))
      | t -> fail_at st (Printf.sprintf "expected <> or = after integer, got %s" (token_to_string t)))
  | t -> fail_at st (Printf.sprintf "expected literal, got %s" (token_to_string t))

let parse_body st terminator =
  let rec loop acc =
    let lit = parse_literal st in
    match next st with
    | Tcomma -> loop (lit :: acc)
    | t when t = terminator -> List.rev (lit :: acc)
    | t -> fail_at st (Printf.sprintf "expected , or %s, got %s" (token_to_string terminator) (token_to_string t))
  in
  loop []

let parse_rule st =
  match next st with
  | Tlbrace ->
      (* choice rule: { elem : gen } = k [:- body] . *)
      let elem =
        match next st with
        | Tident p -> parse_atom st p
        | t -> fail_at st (Printf.sprintf "expected choice atom, got %s" (token_to_string t))
      in
      let gen =
        match next st with
        | Tcolon -> parse_body st Trbrace
        | Trbrace -> []
        | t -> fail_at st (Printf.sprintf "expected : or } in choice, got %s" (token_to_string t))
      in
      expect st Teq;
      let bound =
        match next st with
        | Tint k -> k
        | t -> fail_at st (Printf.sprintf "expected cardinality, got %s" (token_to_string t))
      in
      let body =
        match next st with
        | Tcolondash -> parse_body st Tdot
        | Tdot -> []
        | t -> fail_at st (Printf.sprintf "expected :- or . after choice, got %s" (token_to_string t))
      in
      Rule.Choice { elem; gen; bound; body }
  | Tcolondash -> Rule.Constraint (parse_body st Tdot)
  | Tminimize ->
      expect st Tlbrace;
      let weight = parse_term st in
      (* Optional clingo priority: W@P. *)
      let priority =
        match peek st with
        | Some Tat -> (
            ignore (next st);
            match next st with
            | Tint p -> p
            | t -> fail_at st (Printf.sprintf "expected priority after @, got %s" (token_to_string t)))
        | _ -> 0
      in
      let rec terms acc =
        match next st with
        | Tcomma -> terms (parse_term st :: acc)
        | Tcolon -> List.rev acc
        | tok -> fail_at st (Printf.sprintf "expected , or : in #minimize, got %s" (token_to_string tok))
      in
      let tuple = terms [] in
      let cond = parse_body st Trbrace in
      expect st Tdot;
      Rule.Minimize { weight; priority; tuple; cond }
  | Tshow -> (
      match (next st, next st, next st, next st) with
      | Tident p, Tslash, Tint arity, Tdot -> Rule.Show (p, arity)
      | _ -> fail_at st "expected #show pred/arity.")
  | Tident p ->
      let head = parse_atom st p in
      (match next st with
      | Tcolondash -> Rule.Define (head, parse_body st Tdot)
      | Tdot -> Rule.Define (head, [])
      | t -> fail_at st (Printf.sprintf "expected :- or . after head, got %s" (token_to_string t)))
  | t -> fail_at st (Printf.sprintf "expected rule, got %s" (token_to_string t))

let parse_program src =
  let st = { toks = tokenize src } in
  let rec loop acc = match peek st with None -> List.rev acc | Some _ -> loop (parse_rule st :: acc) in
  loop []

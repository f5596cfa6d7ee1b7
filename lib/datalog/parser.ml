exception Parse_error of string

type token =
  | Tident of string
  | Tstring of string
  | Tint of int
  | Tlparen
  | Trparen
  | Tcomma
  | Tdot
  | Teof

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* A lexer over [src] that hands out one token per call.  Lexical errors
   carry the offset; [drain] lexes the rest of the input so that a
   syntax error can defer to a lexical error further on, as it would
   when the whole input is tokenized first. *)
let lexer src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  (* A quoted string, [!pos] just past the opening quote: runs without
     escapes are copied with one [String.sub] each. *)
  let quoted () =
    let run_end () =
      let i = ref !pos in
      while !i < n && (match String.unsafe_get src !i with '"' | '\\' -> false | _ -> true) do
        incr i
      done;
      !i
    in
    let start = !pos in
    let stop = run_end () in
    if stop < n && Char.equal src.[stop] '"' then begin
      pos := stop + 1;
      String.sub src start (stop - start)
    end
    else begin
      let b = Buffer.create (stop - start + 16) in
      Buffer.add_substring b src start (stop - start);
      pos := stop;
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else if Char.equal src.[!pos] '"' then incr pos
        else begin
          (* A backslash: the run scan stops only there or at a quote. *)
          incr pos;
          if !pos >= n then fail "unterminated escape";
          Buffer.add_char b (match src.[!pos] with 'n' -> '\n' | c -> c);
          incr pos;
          let start = !pos in
          let stop = run_end () in
          Buffer.add_substring b src start (stop - start);
          pos := stop;
          loop ()
        end
      in
      loop ();
      Buffer.contents b
    end
  in
  let rec next () =
    if !pos >= n then Teof
    else
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          next ()
      | '%' ->
          while !pos < n && not (Char.equal src.[!pos] '\n') do
            incr pos
          done;
          next ()
      | '(' -> incr pos; Tlparen
      | ')' -> incr pos; Trparen
      | ',' -> incr pos; Tcomma
      | '.' -> incr pos; Tdot
      | '"' ->
          incr pos;
          Tstring (quoted ())
      | '-' | '0' .. '9' -> (
          let start = !pos in
          if Char.equal src.[!pos] '-' then incr pos;
          while !pos < n && match src.[!pos] with '0' .. '9' -> true | _ -> false do
            incr pos
          done;
          let s = String.sub src start (!pos - start) in
          match int_of_string_opt s with
          | Some v -> Tint v
          | None -> fail (Printf.sprintf "bad integer %S" s))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let start = !pos in
          while !pos < n && is_ident_char src.[!pos] do
            incr pos
          done;
          Tident (String.sub src start (!pos - start))
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let rec drain () = match next () with Teof -> () | _ -> drain () in
  (next, drain)

let fold_facts f init src =
  let next, drain = lexer src in
  let fail msg =
    drain ();
    raise (Parse_error msg)
  in
  let rec args acc =
    match next () with
    | Tstring s -> after_arg (Fact.Str s :: acc)
    | Tint v -> after_arg (Fact.Int v :: acc)
    | Tident s -> after_arg (Fact.Sym s :: acc)
    | _ -> fail "expected argument"
  and after_arg acc =
    match next () with
    | Tcomma -> args acc
    | Trparen -> List.rev acc
    | _ -> fail "expected , or ) after argument"
  in
  let rec facts acc =
    match next () with
    | Teof -> acc
    | Tident pred -> (
        match next () with
        | Tlparen -> (
            let a = args [] in
            match next () with
            | Tdot -> facts (f pred a acc)
            | _ -> fail (Printf.sprintf "expected . after fact %s(...)" pred))
        | Tdot ->
            (* Nullary fact written without parentheses. *)
            facts (f pred [] acc)
        | _ -> fail "expected fact")
    | _ -> fail "expected fact"
  in
  facts init

let parse_facts src = List.rev (fold_facts (fun pred args acc -> Fact.make pred args :: acc) [] src)

let parse_base s = Base.of_list (parse_facts s)

open Minijson

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let roundtrip j = Json.of_string (Json.to_string j)

let test_print_atoms () =
  check_string "null" "null" (Json.to_string Json.Null);
  check_string "true" "true" (Json.to_string (Json.Bool true));
  check_string "int-like number" "42" (Json.to_string (Json.Number 42.));
  check_string "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_print_escapes () =
  check_string "escapes" "\"a\\\"b\\\\c\\nd\\te\"" (Json.to_string (Json.String "a\"b\\c\nd\te"));
  check_string "control char" "\"\\u0001\"" (Json.to_string (Json.String "\001"))

let test_print_compound () =
  let j = Json.Object [ ("a", Json.Array [ Json.Number 1.; Json.Null ]); ("b", Json.Bool false) ] in
  check_string "object" "{\"a\":[1,null],\"b\":false}" (Json.to_string j)

let test_parse_basic () =
  check_bool "object roundtrip" true
    (Json.equal
       (Json.of_string "{ \"x\" : [1, 2.5, -3], \"y\": {\"z\": null} }")
       (Json.Object
          [
            ("x", Json.Array [ Json.Number 1.; Json.Number 2.5; Json.Number (-3.) ]);
            ("y", Json.Object [ ("z", Json.Null) ]);
          ]))

let test_parse_unicode_escape () =
  check_string "bmp escape" "A" (Json.to_str (Json.of_string "\"\\u0041\""));
  check_string "surrogate pair" "\xf0\x9f\x99\x82" (Json.to_str (Json.of_string "\"\\ud83d\\ude42\""))

let test_parse_errors () =
  let expect_fail s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  List.iter expect_fail
    [ "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "[1 2]"; "1 2"; "{'a':1}"; "" ]

(* Exact (offset, reason) pairs for malformed documents, as the
   option-per-character parser reported them: the index scanner must
   blame the same byte with the same words. *)
let test_located_errors () =
  let table =
    [
      ("{\"a\": \"abc", 10, "unterminated string");
      ("\"abc\\", 5, "unterminated escape");
      ("\"a\\qb\"", 4, "bad escape character");
      ("\"\\u12\"", 3, "truncated \\u escape");
      ("\"\\u12", 3, "truncated \\u escape");
      ("\"\\uzzzz\"", 7, "bad \\u escape");
      ("\"\\ud83d\\u0041\"", 13, "invalid low surrogate");
      ("\"\\ud83dx\"", 7, "expected \\");
      ("\"\\ud83d\\x\"", 8, "expected u");
      ("{\"a\" 1}", 5, "expected :");
      ("{1:2}", 1, "expected \"");
      ("[1.2.3]", 6, "bad number \"1.2.3\"");
      ("-", 1, "bad number \"-\"");
      ("{} x", 3, "trailing garbage");
      ("", 0, "unexpected end of input");
      ("   ", 3, "unexpected end of input");
      ("tru", 0, "expected true");
      ("[1 2]", 3, "expected , or ] in array");
      ("[1,]", 3, "unexpected character ']'");
      ("{\"a\":1 \"b\":2}", 7, "expected , or } in object");
      ("@", 0, "unexpected character '@'");
    ]
  in
  List.iter
    (fun (doc, offset, reason) ->
      match Json.of_string_located doc with
      | Ok _ -> Alcotest.failf "expected a located error for %S" doc
      | Error got ->
          Alcotest.(check (pair int string)) (Printf.sprintf "%S" doc) (offset, reason) got)
    table

(* [to_string (String s)] as the codec first defined it, one buffer
   call per byte: the oracle for the one-pass encoder. *)
let bytewise_quoted s =
  let b = Buffer.create 16 in
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
  Buffer.add_char b '"';
  Buffer.contents b

let test_print_every_byte () =
  for code = 0 to 255 do
    let c = String.make 1 (Char.chr code) in
    List.iter
      (fun s ->
        check_string (Printf.sprintf "%S" s) (bytewise_quoted s) (Json.to_string (Json.String s));
        check_bool (Printf.sprintf "%S parses back" s) true
          (Json.equal (Json.String s) (roundtrip (Json.String s))))
      [ c; "ab" ^ c ^ "cd"; "a\"" ^ c ^ "\\b" ]
  done

(* [units] copies of a 13-byte piece spelled in 16 bytes, with a quote,
   backslash or newline every few bytes, as a graph payload embedded in
   a match request is. *)
let escape_dense units = String.concat "" (List.init units (fun _ -> "ab\"cd\\e\nfghi/"))

let test_long_escaped_roundtrip () =
  let s = escape_dense 10_100 in
  check_bool "at least 128 KB" true (String.length s >= 131_072);
  let s' = String.map (fun c -> if Char.equal c 'f' then '\001' else c) s in
  List.iter
    (fun v ->
      let text = Json.to_string v in
      check_bool "parses back" true (Json.equal v (Json.of_string text)))
    [ Json.String s; Json.String s'; Json.Array [ Json.String s; Json.String "x\ty"; Json.String s' ] ];
  List.iter
    (fun s -> check_string "encodes as the bytewise oracle" (bytewise_quoted s) (Json.to_string (Json.String s)))
    [ s; s' ]

(* Errors past a 64 KB escape-dense prefix blame the same byte as
   those at the start of a string ({!test_located_errors}). *)
let test_located_errors_after_long_prefix () =
  let spelled = Json.to_string (Json.String (escape_dense 4096)) in
  let prefix = String.sub spelled 1 (String.length spelled - 2) in
  check_int "prefix length" 65_536 (String.length prefix);
  let table =
    [
      ("\\q\"", 65_539, "bad escape character");
      ("\\u12", 65_539, "truncated \\u escape");
      ("\\ud83d\\u0041\"", 65_549, "invalid low surrogate");
      ("\\", 65_538, "unterminated escape");
      ("", 65_537, "unterminated string");
    ]
  in
  List.iter
    (fun (tail, offset, reason) ->
      match Json.of_string_located ("\"" ^ prefix ^ tail) with
      | Ok _ -> Alcotest.failf "expected a located error for tail %S" tail
      | Error got -> Alcotest.(check (pair int string)) (Printf.sprintf "%S" tail) (offset, reason) got)
    table

let test_member () =
  let j = Json.of_string "{\"a\": 1, \"b\": \"x\"}" in
  check_bool "mem" true (Json.mem "a" j);
  check_bool "not mem" false (Json.mem "c" j);
  Alcotest.(check int) "to_int" 1 (Json.to_int (Json.member "a" j));
  check_string "missing member is Null" "null" (Json.to_string (Json.member "zz" j))

let test_pretty_roundtrip () =
  let j =
    Json.Object
      [ ("list", Json.Array [ Json.String "a"; Json.Object [ ("k", Json.Number 1.) ] ]) ]
  in
  check_bool "pretty parses back" true (Json.equal j (Json.of_string (Json.to_string ~pretty:true j)))

(* Random JSON generator for roundtrip property. *)
let rec random_json depth st =
  let open QCheck.Gen in
  if depth = 0 then
    generate1 ~rand:st
      (oneof
         [
           return Json.Null;
           map (fun b -> Json.Bool b) bool;
           map (fun n -> Json.Number (float_of_int n)) (int_range (-1000) 1000);
           map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 8));
         ])
  else
    match Random.State.int st 3 with
    | 0 ->
        let n = Random.State.int st 4 in
        Json.Array (List.init n (fun _ -> random_json (depth - 1) st))
    | 1 ->
        let n = Random.State.int st 4 in
        Json.Object (List.init n (fun i -> (Printf.sprintf "k%d" i, random_json (depth - 1) st)))
    | _ -> random_json 0 st

let json_arb =
  QCheck.make ~print:(fun j -> Json.to_string ~pretty:true j) (random_json 3)

let prop_roundtrip =
  Helpers.qcheck "print/parse roundtrip" json_arb (fun j -> Json.equal j (roundtrip j))

let prop_pretty_equivalent =
  Helpers.qcheck "pretty and compact parse to the same value" json_arb (fun j ->
      Json.equal (Json.of_string (Json.to_string j)) (Json.of_string (Json.to_string ~pretty:true j)))

(* String pieces the scanner treats specially, each as (decoded bytes,
   one JSON spelling): control bytes, quotes, backslashes, multi-byte
   UTF-8 written raw or as [\u] escapes, and an astral character as a
   surrogate pair. *)
let piece_gen =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun c ->
          let c = Char.chr c in
          (String.make 1 c, Printf.sprintf "\\u%04x" (Char.code c)))
        (int_range 0 0x1f);
      oneofl
        [
          ("\"", "\\\"");
          ("\\", "\\\\");
          ("/", "\\/");
          ("\n", "\\n");
          ("\t", "\\t");
          ("\r", "\\r");
          ("\b", "\\b");
          ("\012", "\\f");
          ("\xc3\xa9", "\xc3\xa9");
          ("\xc3\xa9", "\\u00e9");
          ("\xe2\x82\xac", "\\u20AC");
          ("\xf0\x9f\x99\x82", "\xf0\x9f\x99\x82");
          ("\xf0\x9f\x99\x82", "\\ud83d\\ude42");
        ];
      map
        (fun s ->
          let quoted = Json.to_string (Json.String s) in
          (s, String.sub quoted 1 (String.length quoted - 2)))
        (string_size ~gen:printable (int_range 0 6));
    ]

let prop_string_roundtrip =
  Helpers.qcheck "strings with escapes and UTF-8 round-trip"
    (QCheck.make
       ~print:(fun pieces -> Printf.sprintf "%S" (String.concat "" (List.map snd pieces)))
       QCheck.Gen.(list_size (int_range 0 12) piece_gen))
    (fun pieces ->
      let decoded = String.concat "" (List.map fst pieces) in
      let spelled = "\"" ^ String.concat "" (List.map snd pieces) ^ "\"" in
      let value = Json.Array [ Json.String decoded; Json.Object [ (decoded, Json.Null) ] ] in
      Json.equal (Json.of_string spelled) (Json.String decoded)
      && Json.equal (Json.of_string (Json.to_string value)) value)

let () =
  Alcotest.run "minijson"
    [
      ( "print",
        [
          Alcotest.test_case "atoms" `Quick test_print_atoms;
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "compound" `Quick test_print_compound;
          Alcotest.test_case "every byte as the bytewise oracle" `Quick test_print_every_byte;
        ] );
      ( "parse",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "unicode escapes" `Quick test_parse_unicode_escape;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "located errors" `Quick test_located_errors;
          Alcotest.test_case "located errors after a 64 KB prefix" `Quick
            test_located_errors_after_long_prefix;
          Alcotest.test_case "128 KB escaped string roundtrip" `Quick test_long_escaped_roundtrip;
          Alcotest.test_case "member access" `Quick test_member;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
        ] );
      ("properties", [ prop_roundtrip; prop_pretty_equivalent; prop_string_roundtrip ]);
    ]

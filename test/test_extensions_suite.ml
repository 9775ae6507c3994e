(* Tests for the extension modules: JSON codec, graph editing,
   reachability index, Antimirov construction, Brzozowski minimization,
   binary RPQs, DFA-based evaluation, baseline learners, session
   journals, sequential strategy. *)

open Gps_graph
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Binary = Gps_query.Binary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)

(* -------------------------------------------------------------------- *)
(* Json *)

let test_json_roundtrip_graph () =
  let g = Datasets.figure1 () in
  let g' = Json.of_string (Json.to_string g) in
  check_int "nodes" (Digraph.n_nodes g) (Digraph.n_nodes g');
  check_int "edges" (Digraph.n_edges g) (Digraph.n_edges g');
  Digraph.iter_edges
    (fun e ->
      let src = Option.get (Digraph.node_of_name g' (Digraph.node_name g e.Digraph.src)) in
      let dst = Option.get (Digraph.node_of_name g' (Digraph.node_name g e.Digraph.dst)) in
      let lbl = Option.get (Digraph.label_of_name g' (Digraph.label_name g e.Digraph.lbl)) in
      check "edge kept" true (Digraph.mem_edge g' ~src ~lbl ~dst))
    g

let test_json_values () =
  let v = Json.value_of_string {| {"a": [1, true, null, "x\n\"y\""], "b": {"c": 2.5}} |} in
  (match Json.member "a" v with
  | Some (Json.Array [ Json.Number 1.0; Json.Bool true; Json.Null; Json.String s ]) ->
      Alcotest.(check string) "escapes decoded" "x\n\"y\"" s
  | _ -> Alcotest.fail "bad array decoding");
  (match Json.member "b" v with
  | Some inner -> check "nested" true (Json.member "c" inner = Some (Json.Number 2.5))
  | None -> Alcotest.fail "missing b");
  (* roundtrip through the printer *)
  let again = Json.value_of_string (Json.value_to_string v) in
  check "value roundtrip" true (again = v);
  let pretty = Json.value_of_string (Json.value_to_string ~pretty:true v) in
  check "pretty roundtrip" true (pretty = v)

let test_json_unicode_escape () =
  let decodes text want =
    match Json.value_of_string text with
    | Json.String s -> Alcotest.(check string) text want s
    | _ -> Alcotest.fail "expected a string"
  in
  decodes {| "\u00e9\u20AC" |} "\xc3\xa9\xe2\x82\xac";
  (* a surrogate pair, as Python's json.dumps writes U+1F600 *)
  decodes {| "\ud83d\ude00" |} "\xf0\x9f\x98\x80";
  decodes {| "a\uD83D\uDE00b" |} "a\xf0\x9f\x98\x80b"

let test_json_errors () =
  let fails s =
    match Json.value_of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" s
  in
  fails "{";
  fails "[1,]";
  fails "{\"a\" 1}";
  fails "nul";
  fails "\"unterminated";
  fails "1 2";
  (* \u takes exactly four hex digits *)
  fails {|"\u00_A"|};
  fails {|"\u0_0A"|};
  fails {|"\u+0AB"|};
  (* a lone surrogate has no UTF-8 encoding *)
  fails {|"\ud83d"|};
  fails {|"\ud83dx"|};
  fails {|"\ud83d\n"|};
  fails {|"\ud83d\u0041"|};
  fails {|"\ude00"|};
  (* shape errors for graphs *)
  match Json.of_string {| {"nodes": []} |} with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "graph without edges field must be rejected"

(* The printer as it was before it sized its output: one Buffer per
   escaped string, one closure call per byte. Kept as the reference the
   printer must match byte for byte. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let reference_to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let nl indent = if pretty then Buffer.add_string buf ("\n" ^ String.make indent ' ') in
  let rec go indent = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
    | Json.Number f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" f)
        else
          let s = Printf.sprintf "%.15g" f in
          Buffer.add_string buf (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
    | Json.String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (reference_escape s);
        Buffer.add_char buf '"'
    | Json.Raw _ -> invalid_arg "reference_to_string: no splice leaf"
    | Json.Array [] -> Buffer.add_string buf "[]"
    | Json.Array items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            go (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char buf ']'
    | Json.Object [] -> Buffer.add_string buf "{}"
    | Json.Object fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (reference_escape k);
            Buffer.add_string buf "\":";
            if pretty then Buffer.add_char buf ' ';
            go (indent + 2) item)
          fields;
        nl indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* Strings over every byte value, with the bytes that take an escape and
   multibyte UTF-8 drawn often. *)
let gen_json_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 12)
         (frequency
            [
              (4, map (String.make 1) char);
              ( 3,
                oneofl
                  [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x1f"; "\x7f"; "/"; "\xc3\xa9";
                    "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xe6\x97\xa5" ] );
              (3, string_size ~gen:printable (int_range 1 6));
            ])))

let gen_json_value =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Number (float_of_int i)) (int_range (-1_000_000) 1_000_000);
                 map (fun f -> Json.Number f) (oneofl [ -0.; 0.5; 2.17; 1e15; -3.25e-7; 1. /. 3. ]);
                 map (fun f -> Json.Number f) float;
                 map (fun s -> Json.String s) gen_json_string;
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Array l) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Object l)
                     (list_size (int_bound 4) (pair gen_json_string (self (n - 1)))) );
               ]))

let qcheck_json_printer =
  QCheck.Test.make ~name:"json: printer = reference printer, compact and pretty" ~count:1000
    (QCheck.make ~print:reference_to_string gen_json_value)
    (fun v ->
      Json.value_to_string v = reference_to_string v
      && Json.value_to_string ~pretty:true v = reference_to_string ~pretty:true v)

(* The parser as it was before it stopped allocating per byte: an
   option for every byte it peeks, a Buffer for every string. Kept as
   the reference the parser must match, values and errors alike. *)
module Reference_parser = struct
  type cursor = { text : string; mutable pos : int }

  let fail c msg = raise (Json.Parse_error (c.pos, msg))
  let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None
  let advance c = c.pos <- c.pos + 1

  let rec skip_ws c =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        skip_ws c
    | Some _ | None -> ()

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | Some x -> fail c (Printf.sprintf "expected %C, found %C" ch x)
    | None -> fail c (Printf.sprintf "expected %C, found end of input" ch)

  let parse_literal c word v =
    let n = String.length word in
    if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
      c.pos <- c.pos + n;
      v
    end
    else fail c (Printf.sprintf "expected %s" word)

  let parse_string_body c =
    let buf = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> fail c "unterminated string"
      | Some '"' -> advance c
      | Some '\\' -> (
          advance c;
          match peek c with
          | None -> fail c "unterminated escape"
          | Some esc ->
              advance c;
              (match esc with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  (* exactly four hex digits; a surrogate pair is one
                     code point, a lone surrogate an error *)
                  let hex4 () =
                    if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
                    let hex = String.sub c.text c.pos 4 in
                    if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) hex)
                    then fail c "bad \\u escape";
                    c.pos <- c.pos + 4;
                    int_of_string ("0x" ^ hex)
                  in
                  let lone () = fail c "lone surrogate in \\u escape" in
                  let code = hex4 () in
                  let code =
                    if code >= 0xDC00 && code <= 0xDFFF then lone ()
                    else if code >= 0xD800 && code <= 0xDBFF then begin
                      if peek c <> Some '\\' then lone ();
                      advance c;
                      if peek c <> Some 'u' then begin
                        c.pos <- c.pos - 1;
                        lone ()
                      end;
                      advance c;
                      let low = hex4 () in
                      if low < 0xDC00 || low > 0xDFFF then lone ();
                      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                    end
                    else code
                  in
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else if code < 0x10000 then begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
                    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
              | other -> fail c (Printf.sprintf "bad escape \\%c" other));
              go ())
      | Some ch ->
          advance c;
          Buffer.add_char buf ch;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number c =
    let start = c.pos in
    let is_num_char ch =
      (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
    in
    while (match peek c with Some ch -> is_num_char ch | None -> false) do
      advance c
    done;
    let s = String.sub c.text start (c.pos - start) in
    match float_of_string_opt s with
    | Some f -> Json.Number f
    | None -> fail c (Printf.sprintf "bad number %S" s)

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> fail c "unexpected end of input"
    | Some '"' ->
        advance c;
        Json.String (parse_string_body c)
    | Some '{' ->
        advance c;
        parse_object c []
    | Some '[' ->
        advance c;
        parse_array c []
    | Some 't' -> parse_literal c "true" (Json.Bool true)
    | Some 'f' -> parse_literal c "false" (Json.Bool false)
    | Some 'n' -> parse_literal c "null" Json.Null
    | Some ('-' | '0' .. '9') -> parse_number c
    | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

  and parse_object c acc =
    skip_ws c;
    match peek c with
    | Some '}' ->
        advance c;
        Json.Object (List.rev acc)
    | _ -> (
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
            advance c;
            skip_ws c;
            if peek c = Some '}' then fail c "trailing comma in object"
            else parse_object c ((key, v) :: acc)
        | Some '}' ->
            advance c;
            Json.Object (List.rev ((key, v) :: acc))
        | _ -> fail c "expected ',' or '}'")

  and parse_array c acc =
    skip_ws c;
    match peek c with
    | Some ']' ->
        advance c;
        Json.Array (List.rev acc)
    | _ -> (
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
            advance c;
            skip_ws c;
            if peek c = Some ']' then fail c "trailing comma in array" else parse_array c (v :: acc)
        | Some ']' ->
            advance c;
            Json.Array (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'")

  let value_of_string text =
    let c = { text; pos = 0 } in
    let v = parse_value c in
    skip_ws c;
    (match peek c with None -> () | Some _ -> fail c "trailing input");
    v
end

(* A printed document, then maybe cut short or with one byte replaced,
   inserted or deleted: every outcome the parser can reach. *)
let gen_json_input =
  QCheck.Gen.(
    let* v = gen_json_value in
    let* pretty = bool in
    let text = Json.value_to_string ~pretty v in
    let n = String.length text in
    let* i = int_bound n in
    let* byte = char in
    let* escape = oneofl [ "\\"; "\\u"; "\\u00"; "\\uZZZZ"; "\\q"; "\""; ","; "}"; "]" ] in
    oneof
      [
        return text;
        return (String.sub text 0 i);
        return (String.sub text 0 i ^ String.make 1 byte ^ String.sub text i (n - i));
        return (String.sub text 0 i ^ escape ^ String.sub text i (n - i));
        (if i < n then
           return (String.sub text 0 i ^ String.make 1 byte ^ String.sub text (i + 1) (n - i - 1))
         else return text);
        (if i < n then return (String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1))
         else return text);
      ])

let qcheck_json_parser =
  QCheck.Test.make ~name:"json: parser = reference parser, values and errors" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_input)
    (fun text ->
      let outcome parse =
        match parse text with v -> Ok v | exception Json.Parse_error (pos, msg) -> Error (pos, msg)
      in
      (* [compare], not [=]: a NaN number must equal itself *)
      compare (outcome Json.value_of_string) (outcome Reference_parser.value_of_string) = 0)

let test_json_isolated_nodes () =
  let g = Json.of_string {| {"nodes": ["lonely"], "edges": [{"src":"a","label":"x","dst":"b"}]} |} in
  check_int "three nodes" 3 (Digraph.n_nodes g);
  check "lonely kept" true (Digraph.node_of_name g "lonely" <> None)

(* -------------------------------------------------------------------- *)
(* Edit *)

let test_edit_induced () =
  let g = Datasets.figure1 () in
  let sub = Edit.induced g [ node g "N2"; node g "N1"; node g "N4" ] in
  check_int "three nodes" 3 (Digraph.n_nodes sub);
  (* edges among members: N2-bus->N1, N1-tram->N4, N1-bus->N4 *)
  check_int "three edges" 3 (Digraph.n_edges sub);
  check "names preserved" true (Digraph.node_of_name sub "N1" <> None)

let test_edit_filter_labels () =
  let g = Datasets.figure1 () in
  let transport = Edit.filter_labels g ~keep:(fun l -> l = "tram" || l = "bus") in
  check_int "nodes kept" (Digraph.n_nodes g) (Digraph.n_nodes transport);
  check_int "transport edges only" 6 (Digraph.n_edges transport);
  check "no cinema label" true (Digraph.label_of_name transport "cinema" = None
                                || Digraph.fold_edges (fun acc e ->
                                       acc && Digraph.label_name transport e.Digraph.lbl <> "cinema")
                                     true transport)

let test_edit_remove_node () =
  let g = Datasets.figure1 () in
  let g' = Edit.remove_node g (node g "N1") in
  check_int "one fewer node" (Digraph.n_nodes g - 1) (Digraph.n_nodes g');
  check "N1 gone" true (Digraph.node_of_name g' "N1" = None);
  (* removing N1 cuts N2's route to C1 via tram *)
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  check "N2 no longer selected" false (Eval.select g' q).(node g' "N2")

let test_edit_remove_edge () =
  let g = Datasets.figure1 () in
  let n4 = node g "N4" and c1 = node g "C1" in
  let lbl = Option.get (Digraph.label_of_name g "cinema") in
  let g' = Edit.remove_edge g { Digraph.src = n4; lbl; dst = c1 } in
  check_int "one fewer edge" (Digraph.n_edges g - 1) (Digraph.n_edges g');
  let q = Rpq.of_string_exn "cinema" in
  check "N4 lost its cinema" false (Eval.select g' q).(node g' "N4");
  check "N6 keeps its cinema" true (Eval.select g' q).(node g' "N6")

let test_edit_merge_nodes () =
  let g = Codec.of_edges [ ("a", "x", "b"); ("c", "y", "b"); ("b", "z", "c") ] in
  let merged = Edit.merge_nodes g ~into:(node g "a") (node g "c") in
  check_int "one fewer node" 2 (Digraph.n_nodes merged);
  let a = node merged "a" and b = node merged "b" in
  let y = Option.get (Digraph.label_of_name merged "y") in
  let z = Option.get (Digraph.label_of_name merged "z") in
  check "c's out-edge moved" true (Digraph.mem_edge merged ~src:a ~lbl:y ~dst:b);
  check "c's in-edge moved" true (Digraph.mem_edge merged ~src:b ~lbl:z ~dst:a);
  Alcotest.check_raises "self merge"
    (Invalid_argument "Edit.merge_nodes: cannot merge a node into itself") (fun () ->
      ignore (Edit.merge_nodes g ~into:(node g "a") (node g "a")))

let test_edit_relabel () =
  let g = Datasets.figure1 () in
  let g' = Edit.relabel g ~from_label:"tram" ~to_label:"bus" in
  check "no tram edges left" true
    (Digraph.fold_edges
       (fun acc e -> acc && Digraph.label_name g' e.Digraph.lbl <> "tram")
       true g');
  (* N1 had both tram->N4 and bus->N4: they collapse into one edge *)
  check_int "collapsed duplicate" (Digraph.n_edges g - 1) (Digraph.n_edges g')

(* -------------------------------------------------------------------- *)
(* Reach *)

let test_reach_figure1 () =
  let g = Datasets.figure1 () in
  let idx = Reach.build g in
  check "N2 reaches C1" true (Reach.reachable idx (node g "N2") (node g "C1"));
  check "N5 does not reach C1" false (Reach.reachable idx (node g "N5") (node g "C1"));
  check "reflexive" true (Reach.reachable idx (node g "N5") (node g "N5"));
  check "any" true
    (Reach.reachable_any idx (node g "N2") [ node g "C1"; node g "C2" ]);
  check_int "C1 reaches only itself" 1 (Reach.count_from idx (node g "C1"))

let test_reach_filtered () =
  let g = Datasets.figure1 () in
  let idx = Reach.build_filtered g ~keep:(fun l -> l = "tram" || l = "bus") in
  check "transport-only: N2 reaches N4" true (Reach.reachable idx (node g "N2") (node g "N4"));
  check "transport-only: N4 does not reach C1" false
    (Reach.reachable idx (node g "N4") (node g "C1"))

let test_reach_cycle () =
  let g = Codec.of_edges [ ("a", "x", "b"); ("b", "x", "c"); ("c", "x", "a"); ("d", "y", "a") ] in
  let idx = Reach.build g in
  check "within scc" true (Reach.reachable idx (node g "a") (node g "c"));
  check "into scc" true (Reach.reachable idx (node g "d") (node g "b"));
  check "not back out" false (Reach.reachable idx (node g "a") (node g "d"));
  check_int "a reaches 3" 3 (Reach.count_from idx (node g "a"))

(* -------------------------------------------------------------------- *)
(* Antimirov / Brzozowski *)

let p = Gps_regex.Parse.parse_exn

let test_antimirov_membership () =
  let r = p "(tram+bus)*.cinema" in
  check "cinema" true (Gps_regex.Antimirov.matches r [ "cinema" ]);
  check "bus.tram.cinema" true (Gps_regex.Antimirov.matches r [ "bus"; "tram"; "cinema" ]);
  check "not bus" false (Gps_regex.Antimirov.matches r [ "bus" ]);
  check "not eps" false (Gps_regex.Antimirov.matches r [])

let test_antimirov_linear_terms () =
  let r = p "(a+b)*.c.(a.b)*" in
  (* Antimirov guarantees at most size-of-regex+1 distinct terms *)
  check "few terms" true
    (List.length (Gps_regex.Antimirov.terms r) <= Gps_regex.Regex.size r + 1)

let test_antimirov_nfa () =
  let open Gps_automata in
  let r = p "(tram+bus)*.cinema" in
  let a = Compile.to_nfa_antimirov r in
  check "accepts" true (Nfa.accepts a [ "tram"; "cinema" ]);
  check "rejects" false (Nfa.accepts a [ "cinema"; "tram" ]);
  check "not larger than Glushkov" true
    (Nfa.n_states a <= Nfa.n_states (Compile.to_nfa r))

let test_brzozowski_minimal () =
  let open Gps_automata in
  let r = p "(a+b)*.a.b" in
  let hopcroft = Dfa.minimize (Dfa.determinize (Compile.to_nfa r)) in
  let brzozowski = Dfa.minimize_brzozowski (Compile.to_nfa r) in
  check "same language" true (Dfa.equal_lang hopcroft brzozowski);
  (* both minimal: same number of live states *)
  check_int "same live size" (Dfa.n_live_states hopcroft) (Dfa.n_live_states brzozowski)

(* -------------------------------------------------------------------- *)
(* Binary RPQ *)

let test_binary_targets_figure1 () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let targets = Binary.targets g q (node g "N2") in
  let names = List.sort compare (List.map (Digraph.node_name g) targets) in
  (* from N2 one can end a q-walk in C1 (via N1/N4) or C2? N2 cannot reach
     N6, so only C1 *)
  Alcotest.(check (list string)) "targets of N2" [ "C1" ] names;
  check "pair answer" true (Binary.is_answer g q ~src:(node g "N2") ~dst:(node g "C1"));
  check "non-answer" false (Binary.is_answer g q ~src:(node g "N2") ~dst:(node g "C2"))

let test_binary_epsilon_pairs () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "bus*" in
  (* epsilon in language: (v, v) is an answer for every v *)
  check "reflexive pair" true (Binary.is_answer g q ~src:(node g "C1") ~dst:(node g "C1"));
  check "bus pair" true (Binary.is_answer g q ~src:(node g "N2") ~dst:(node g "N3"))

let test_binary_witness () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "(tram+bus)*.cinema" in
  match Binary.witness g q ~src:(node g "N2") ~dst:(node g "C1") with
  | Some w ->
      check "starts at src" true (List.hd w.Gps_query.Witness.walk = node g "N2");
      check "ends at dst" true
        (List.nth w.Gps_query.Witness.walk (List.length w.Gps_query.Witness.walk - 1)
        = node g "C1");
      check "word in language" true (Rpq.matches_word q w.Gps_query.Witness.word)
  | None -> Alcotest.fail "witness expected"

let test_binary_count () =
  let g = Datasets.figure1 () in
  let q = Rpq.of_string_exn "cinema" in
  (* exactly N4->C1 and N6->C2 *)
  check_int "two pairs" 2 (Binary.count_pairs g q)

(* -------------------------------------------------------------------- *)
(* evaluation against the minimized DFA *)

let test_eval_dfa_agrees () =
  let g = Generators.city (Generators.default_city ~districts:16) ~seed:2 in
  let module Dfa = Gps_automata.Dfa in
  List.iter
    (fun qs ->
      let q = Rpq.of_string_exn qs in
      let via_dfa = Rpq.of_nfa (Dfa.to_nfa (Dfa.minimize (Dfa.determinize (Rpq.nfa q)))) in
      check ("dfa/nfa eval agree on " ^ qs) true (Eval.select g q = Eval.select g via_dfa))
    [ "cinema"; "(tram+bus)*.cinema"; "metro*.park"; "bus.bus*"; "zzz"; "eps" ]

(* -------------------------------------------------------------------- *)
(* Baseline learners *)

let paper_sample g =
  let s = Gps_learning.Sample.of_names g ~pos:[ "N2"; "N6" ] ~neg:[ "N5" ] in
  let s = Gps_learning.Sample.validate s (node g "N2") [ "bus"; "tram"; "cinema" ] in
  Gps_learning.Sample.validate s (node g "N6") [ "cinema" ]

let test_baseline_disjunction () =
  let g = Datasets.figure1 () in
  match Gps_learning.Baseline.disjunction g (paper_sample g) with
  | Gps_learning.Learner.Learned q ->
      check "consistent" true
        (Eval.consistent g q ~pos:[ node g "N2"; node g "N6" ] ~neg:[ node g "N5" ]);
      (* no generalization: N1 (selected by the goal) is NOT selected *)
      check "does not generalize" false (Eval.select g q).(node g "N1")
  | Gps_learning.Learner.Failed _ -> Alcotest.fail "expected success"

let test_baseline_label_union () =
  let g = Datasets.figure1 () in
  match Gps_learning.Baseline.label_union g (paper_sample g) with
  | Gps_learning.Learner.Learned q ->
      check "consistent" true
        (Eval.consistent g q ~pos:[ node g "N2"; node g "N6" ] ~neg:[ node g "N5" ])
  | Gps_learning.Learner.Failed _ -> Alcotest.fail "expected success"

let test_baseline_empty_sample () =
  let g = Datasets.figure1 () in
  match Gps_learning.Baseline.disjunction g Gps_learning.Sample.empty with
  | Gps_learning.Learner.Learned q -> check_int "selects nothing" 0 (Eval.count g q)
  | Gps_learning.Learner.Failed _ -> Alcotest.fail "empty sample is fine"

(* -------------------------------------------------------------------- *)
(* Journal *)

let test_journal_roundtrip () =
  let entries =
    [
      Gps_interactive.Journal.Label (Some "N2", `Zoom);
      Gps_interactive.Journal.Label (Some "N2", `Pos);
      Gps_interactive.Journal.Validate (Some "N2", [ "bus"; "bus"; "cinema" ]);
      Gps_interactive.Journal.Satisfied ("bus*.cinema", true);
      Gps_interactive.Journal.Label (None, `Neg);
    ]
  in
  match Gps_interactive.Journal.of_json (Gps_interactive.Journal.to_json entries) with
  | Ok decoded -> check "roundtrip" true (decoded = entries)
  | Error e -> Alcotest.fail e

let test_journal_record_replay () =
  let g = Datasets.figure1 () in
  let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
  let user, journal_of =
    Gps_interactive.Journal.recording (Gps_interactive.Oracle.perfect ~goal)
  in
  let strategy = Gps_interactive.Strategy.smart in
  let t1 = Gps_interactive.Simulate.run g ~strategy ~user in
  let journal = journal_of () in
  check "journal non-empty" true (journal <> []);
  let t2 =
    Gps_interactive.Simulate.run g ~strategy
      ~user:(Gps_interactive.Journal.replayer journal)
  in
  check "identical outcome" true
    (Rpq.to_string t1.Gps_interactive.Simulate.outcome.Gps_interactive.Session.query
    = Rpq.to_string t2.Gps_interactive.Simulate.outcome.Gps_interactive.Session.query);
  check "identical question count" true
    (t1.Gps_interactive.Simulate.questions = t2.Gps_interactive.Simulate.questions)

let test_journal_divergence_detected () =
  let journal = [ Gps_interactive.Journal.Label (Some "WRONG", `Pos) ] in
  let g = Datasets.figure1 () in
  let user = Gps_interactive.Journal.replayer journal in
  match Gps_interactive.Simulate.run g ~strategy:Gps_interactive.Strategy.smart ~user with
  | exception Failure msg -> check "mentions divergence" true (String.length msg > 0)
  | _ -> Alcotest.fail "divergence must raise"

let test_journal_bad_json () =
  check "parse error surfaces" true
    (Result.is_error (Gps_interactive.Journal.of_json "[{\"kind\": \"launch\"}]"));
  check "not an array" true (Result.is_error (Gps_interactive.Journal.of_json "{}"))

(* -------------------------------------------------------------------- *)
(* sequential strategy *)

let test_sequential_strategy () =
  let g = Datasets.figure1 () in
  let ctx =
    {
      Gps_interactive.Strategy.scorer = Gps_interactive.Informative.create g ~bound:3;
      excluded = (fun _ -> false);
      negatives = [];
    }
  in
  check "picks lowest id" true
    (Gps_interactive.Strategy.sequential.Gps_interactive.Strategy.choose ctx = Some 0);
  check "by_name knows it" true
    (Result.is_ok (Gps_interactive.Strategy.by_name ~seed:0 "sequential"))

(* -------------------------------------------------------------------- *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  let arb_graph =
    make
      Gen.(
        let* n = int_range 2 10 in
        let* m = int_range 1 25 in
        let* seed = int_range 0 9_999 in
        return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed))
  in
  let gen_regex =
    Gen.(
      let sym = oneofl [ "a"; "b"; "c" ] in
      fix
        (fun self n ->
          if n <= 1 then map Gps_regex.Regex.sym sym
          else
            frequency
              [
                (3, map Gps_regex.Regex.sym sym);
                (2, map2 (fun a b -> Gps_regex.Regex.alt [ a; b ]) (self (n / 2)) (self (n / 2)));
                (3, map2 (fun a b -> Gps_regex.Regex.seq [ a; b ]) (self (n / 2)) (self (n / 2)));
                (2, map Gps_regex.Regex.star (self (n - 1)));
              ])
        8)
  in
  let arb_regex = make ~print:Gps_regex.Regex.to_string gen_regex in
  let gen_word = Gen.(list_size (int_bound 6) (oneofl [ "a"; "b"; "c" ])) in
  [
    Test.make ~name:"antimirov agrees with brzozowski derivatives" ~count:500
      (pair arb_regex (make gen_word)) (fun (r, w) ->
        Gps_regex.Antimirov.matches r w = Gps_regex.Deriv.matches r w);
    Test.make ~name:"antimirov NFA agrees with Glushkov NFA" ~count:400
      (pair arb_regex (make gen_word)) (fun (r, w) ->
        let open Gps_automata in
        Nfa.accepts (Compile.to_nfa_antimirov r) w = Nfa.accepts (Compile.to_nfa r) w);
    Test.make ~name:"brzozowski minimization equals hopcroft (live states + language)"
      ~count:200 arb_regex (fun r ->
        let open Gps_automata in
        let nfa = Compile.to_nfa r in
        let h = Dfa.minimize (Dfa.determinize nfa) in
        let b = Dfa.minimize_brzozowski nfa in
        Dfa.equal_lang h b && Dfa.n_live_states h = Dfa.n_live_states b);
    Test.make ~name:"binary targets agree with monadic selection" ~count:200
      (pair arb_graph arb_regex) (fun (g, r) ->
        Binary.agree_with_monadic g (Rpq.of_regex r));
    Test.make ~name:"json graph roundtrip" ~count:200 arb_graph (fun g ->
        let g' = Json.of_string (Json.to_string g) in
        Digraph.n_nodes g = Digraph.n_nodes g' && Digraph.n_edges g = Digraph.n_edges g');
    Test.make ~name:"reach index agrees with BFS" ~count:200 arb_graph (fun g ->
        let idx = Reach.build g in
        Digraph.fold_nodes
          (fun acc v ->
            let bfs = Traverse.reachable g v in
            acc
            && Digraph.fold_nodes (fun acc u -> acc && bfs.(u) = Reach.reachable idx v u) true g)
          true g);
    Test.make ~name:"remove_node removes all incident edges" ~count:200 arb_graph (fun g ->
        let v = 0 in
        let name = Digraph.node_name g v in
        let g' = Edit.remove_node g v in
        Digraph.node_of_name g' name = None
        && Digraph.fold_edges
             (fun acc e ->
               acc
               && Digraph.node_name g' e.Digraph.src <> name
               && Digraph.node_name g' e.Digraph.dst <> name)
             true g');
    Test.make ~name:"induced subgraph never gains edges" ~count:200 arb_graph (fun g ->
        let sub = Edit.induced g (List.filteri (fun i _ -> i mod 2 = 0) (Digraph.nodes g)) in
        Digraph.n_edges sub <= Digraph.n_edges g);
    Test.make ~name:"baseline disjunction is always consistent" ~count:100
      (pair arb_graph arb_regex) (fun (g, r) ->
        let goal = Rpq.of_regex r in
        let sel = Eval.select g goal in
        let nodes = Digraph.nodes g in
        let pos = List.filteri (fun i _ -> i < 2) (List.filter (fun v -> sel.(v)) nodes) in
        let neg =
          List.filteri (fun i _ -> i < 2) (List.filter (fun v -> not sel.(v)) nodes)
        in
        let s = List.fold_left Gps_learning.Sample.add_pos Gps_learning.Sample.empty pos in
        let s = List.fold_left Gps_learning.Sample.add_neg s neg in
        match Gps_learning.Baseline.disjunction g s with
        | Gps_learning.Learner.Learned q -> Eval.consistent g q ~pos ~neg
        | Gps_learning.Learner.Failed _ -> pos = [] || true);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "ext.json",
      [
        t "graph roundtrip" test_json_roundtrip_graph;
        t "values" test_json_values;
        t "unicode escapes" test_json_unicode_escape;
        t "errors" test_json_errors;
        t "isolated nodes" test_json_isolated_nodes;
        QCheck_alcotest.to_alcotest qcheck_json_printer;
        QCheck_alcotest.to_alcotest qcheck_json_parser;
      ] );
    ( "ext.edit",
      [
        t "induced" test_edit_induced;
        t "filter labels" test_edit_filter_labels;
        t "remove node" test_edit_remove_node;
        t "remove edge" test_edit_remove_edge;
        t "merge nodes" test_edit_merge_nodes;
        t "relabel" test_edit_relabel;
      ] );
    ( "ext.reach",
      [
        t "figure1" test_reach_figure1;
        t "filtered" test_reach_filtered;
        t "cycle" test_reach_cycle;
      ] );
    ( "ext.antimirov",
      [
        t "membership" test_antimirov_membership;
        t "linear terms" test_antimirov_linear_terms;
        t "nfa" test_antimirov_nfa;
        t "brzozowski minimization" test_brzozowski_minimal;
      ] );
    ( "ext.binary",
      [
        t "targets" test_binary_targets_figure1;
        t "epsilon pairs" test_binary_epsilon_pairs;
        t "witness" test_binary_witness;
        t "count" test_binary_count;
      ] );
    ("ext.eval_dfa", [ t "agrees with nfa" test_eval_dfa_agrees ]);
    ( "ext.baseline",
      [
        t "disjunction" test_baseline_disjunction;
        t "label union" test_baseline_label_union;
        t "empty sample" test_baseline_empty_sample;
      ] );
    ( "ext.journal",
      [
        t "json roundtrip" test_journal_roundtrip;
        t "record/replay" test_journal_record_replay;
        t "divergence" test_journal_divergence_detected;
        t "bad json" test_journal_bad_json;
      ] );
    ("ext.strategy", [ t "sequential" test_sequential_strategy ]);
    ("ext.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

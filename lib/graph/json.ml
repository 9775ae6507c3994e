type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list
  | Raw of string

exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* parsing: the cursor is tested in place, never boxed into an option
   ([cur] reads the byte under it once [at_end] is false), and a string
   without escapes is one [String.sub] *)

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_error (c.pos, msg))

let at_end c = c.pos >= String.length c.text

let cur c = String.unsafe_get c.text c.pos

let looking_at c ch = (not (at_end c)) && cur c = ch

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while (not (at_end c)) && match cur c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    advance c
  done

let expect c ch =
  if at_end c then fail c (Printf.sprintf "expected %C, found end of input" ch)
  else if cur c = ch then advance c
  else fail c (Printf.sprintf "expected %C, found %C" ch (cur c))

let parse_literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

(* exactly four hex digits under the cursor *)
let hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let code = ref 0 in
  for i = 0 to 3 do
    let d = hex_digit (String.unsafe_get c.text (c.pos + i)) in
    if d < 0 then fail c "bad \\u escape";
    code := (!code lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !code

(* after "\u": one code point as UTF-8. A high surrogate must be followed
   by "\u" and a low one, and the pair is one 4-byte sequence; a lone
   surrogate has no UTF-8 encoding. *)
let parse_unicode_escape c buf =
  let code = hex4 c in
  if code >= 0xDC00 && code <= 0xDFFF then fail c "lone surrogate in \\u escape"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    if not (c.pos + 2 <= String.length c.text && c.text.[c.pos] = '\\' && c.text.[c.pos + 1] = 'u')
    then fail c "lone surrogate in \\u escape";
    c.pos <- c.pos + 2;
    let low = hex4 c in
    if low < 0xDC00 || low > 0xDFFF then fail c "lone surrogate in \\u escape";
    Buffer.add_utf_8_uchar buf (Uchar.of_int (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)))
  end
  else Buffer.add_utf_8_uchar buf (Uchar.of_int code)

(* after the opening quote; a [Buffer] only once an escape appears *)
let parse_string_body c =
  let start = c.pos in
  while (not (at_end c)) && cur c <> '"' && cur c <> '\\' do
    advance c
  done;
  if at_end c then fail c "unterminated string";
  if cur c = '"' then begin
    advance c;
    String.sub c.text start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (c.pos - start + 16) in
    Buffer.add_substring buf c.text start (c.pos - start);
    let rec go () =
      if at_end c then fail c "unterminated string";
      let ch = cur c in
      advance c;
      match ch with
      | '"' -> ()
      | '\\' ->
          if at_end c then fail c "unterminated escape";
          let esc = cur c in
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
          | 'u' -> parse_unicode_escape c buf
          | other -> fail c (Printf.sprintf "bad escape \\%c" other));
          go ()
      | ch ->
          Buffer.add_char buf ch;
          go ()
    in
    go ();
    Buffer.contents buf
  end

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

let parse_number c =
  let start = c.pos in
  while (not (at_end c)) && is_num_char (cur c) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> fail c (Printf.sprintf "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match cur c with
  | '"' ->
      advance c;
      String (parse_string_body c)
  | '{' ->
      advance c;
      parse_object c []
  | '[' ->
      advance c;
      parse_array c []
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | 'n' -> parse_literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected %C" ch)

and parse_object c acc =
  skip_ws c;
  if looking_at c '}' then begin
    advance c;
    Object (List.rev acc)
  end
  else begin
    expect c '"';
    let key = parse_string_body c in
    skip_ws c;
    expect c ':';
    let acc = (key, parse_value c) :: acc in
    skip_ws c;
    if looking_at c ',' then begin
      advance c;
      skip_ws c;
      if looking_at c '}' then fail c "trailing comma in object" else parse_object c acc
    end
    else if looking_at c '}' then parse_object c acc
    else fail c "expected ',' or '}'"
  end

and parse_array c acc =
  skip_ws c;
  if looking_at c ']' then begin
    advance c;
    Array (List.rev acc)
  end
  else begin
    let acc = parse_value c :: acc in
    skip_ws c;
    if looking_at c ',' then begin
      advance c;
      skip_ws c;
      if looking_at c ']' then fail c "trailing comma in array" else parse_array c acc
    end
    else if looking_at c ']' then parse_array c acc
    else fail c "expected ',' or ']'"
  end

let value_of_string text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if not (at_end c) then fail c "trailing input";
  v

(* ------------------------------------------------------------------ *)
(* printing: size the output exactly, then write it into bytes of that
   size, copying each run of bytes that needs no escape in one blit *)

(* '"', '\\' and the control bytes below 0x20 take an escape *)
let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' | '\n' | '\r' | '\t' -> incr n
    | c when c < ' ' -> n := !n + 5
    | _ -> ()
  done;
  !n

type out = { bytes : Bytes.t; mutable pos : int }

let put_char o c =
  Bytes.set o.bytes o.pos c;
  o.pos <- o.pos + 1

let put_sub o s off len =
  Bytes.blit_string s off o.bytes o.pos len;
  o.pos <- o.pos + len

let put_string o s = put_sub o s 0 (String.length s)

let hex = "0123456789abcdef"

let put_escaped o s =
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      put_sub o s !run (i - !run);
      run := i + 1;
      put_char o '\\';
      match c with
      | '"' | '\\' -> put_char o c
      | '\n' -> put_char o 'n'
      | '\r' -> put_char o 'r'
      | '\t' -> put_char o 't'
      | _ ->
          put_string o "u00";
          put_char o hex.[Char.code c lsr 4];
          put_char o hex.[Char.code c land 15]
    end
  done;
  put_sub o s !run (String.length s - !run)

let put_quoted o s =
  put_char o '"';
  put_escaped o s;
  put_char o '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest decimal that round-trips: %.15g covers almost every
       value (and prints 2.17 as "2.17"); the rare remainder needs all
       17 digits *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Fill bytes of the length [size] computed, and check it was exact. *)
let exactly size write =
  let o = { bytes = Bytes.create size; pos = 0 } in
  write o;
  if o.pos <> size then invalid_arg "Json: output size mismatch";
  Bytes.unsafe_to_string o.bytes

let value_to_string ?(pretty = false) v =
  let nl_length indent = if pretty then 1 + indent else 0 in
  let nl o indent =
    if pretty then begin
      put_char o '\n';
      Bytes.fill o.bytes o.pos indent ' ';
      o.pos <- o.pos + indent
    end
  in
  (* both walks list their items in the same order; [exactly] checks
     that they agree on the length *)
  let rec size indent = function
    | Null -> 4
    | Bool b -> if b then 4 else 5
    | Number f -> String.length (number_to_string f)
    | String s -> escaped_length s + 2
    | Raw s -> String.length s
    | Array [] | Object [] -> 2
    | Array items ->
        List.fold_left
          (fun acc item -> acc + 1 + nl_length (indent + 2) + size (indent + 2) item)
          (1 + nl_length indent) items
    | Object fields ->
        List.fold_left
          (fun acc (k, item) ->
            acc + 1 + nl_length (indent + 2) + escaped_length k + 3
            + (if pretty then 1 else 0)
            + size (indent + 2) item)
          (1 + nl_length indent) fields
  in
  let rec write o indent = function
    | Null -> put_string o "null"
    | Bool b -> put_string o (if b then "true" else "false")
    | Number f -> put_string o (number_to_string f)
    | String s -> put_quoted o s
    | Raw s -> put_string o s
    | Array [] -> put_string o "[]"
    | Array items ->
        put_char o '[';
        List.iteri
          (fun i item ->
            if i > 0 then put_char o ',';
            nl o (indent + 2);
            write o (indent + 2) item)
          items;
        nl o indent;
        put_char o ']'
    | Object [] -> put_string o "{}"
    | Object fields ->
        put_char o '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then put_char o ',';
            nl o (indent + 2);
            put_quoted o k;
            put_char o ':';
            if pretty then put_char o ' ';
            write o (indent + 2) item)
          fields;
        nl o indent;
        put_char o '}'
  in
  exactly (size 0 v) (fun o -> write o 0 v)

let string_array iter =
  let count = ref 0 and size = ref 1 in
  iter (fun s ->
      incr count;
      size := !size + escaped_length s + 3);
  let bytes =
    exactly
      (if !count = 0 then 2 else !size)
      (fun o ->
        put_char o '[';
        let first = ref true in
        iter (fun s ->
            if not !first then put_char o ',';
            first := false;
            put_quoted o s);
        put_char o ']')
  in
  (!count, bytes)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | String _ | Array _ | Raw _ -> None

(* ------------------------------------------------------------------ *)
(* graph <-> JSON *)

let to_string ?pretty g =
  let nodes =
    List.map (fun v -> String (Digraph.node_name g v)) (Digraph.nodes g)
  in
  let edges =
    List.rev
      (Digraph.fold_edges
         (fun acc e ->
           Object
             [
               ("src", String (Digraph.node_name g e.Digraph.src));
               ("label", String (Digraph.label_name g e.Digraph.lbl));
               ("dst", String (Digraph.node_name g e.Digraph.dst));
             ]
           :: acc)
         [] g)
  in
  value_to_string ?pretty (Object [ ("nodes", Array nodes); ("edges", Array edges) ])

let shape_error msg = raise (Parse_error (0, "graph document: " ^ msg))

let of_string text =
  let v = value_of_string text in
  let g = Digraph.create () in
  (match member "nodes" v with
  | Some (Array names) ->
      List.iter
        (function
          | String name -> ignore (Digraph.add_node g name)
          | Null | Bool _ | Number _ | Array _ | Object _ | Raw _ -> shape_error "node must be a string")
        names
  | Some _ -> shape_error "\"nodes\" must be an array"
  | None -> ());
  (match member "edges" v with
  | Some (Array edges) ->
      List.iter
        (fun e ->
          match (member "src" e, member "label" e, member "dst" e) with
          | Some (String src), Some (String label), Some (String dst) ->
              Digraph.link g src label dst
          | _ -> shape_error "edge must have string src/label/dst")
        edges
  | Some _ -> shape_error "\"edges\" must be an array"
  | None -> shape_error "missing \"edges\"");
  g

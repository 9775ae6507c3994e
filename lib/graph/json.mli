(** JSON serialization of graph databases (self-contained — no external
    JSON dependency).

    The document shape interchanges with common graph tooling:
    {v
    { "nodes": ["N1", "N2"],
      "edges": [ { "src": "N1", "label": "tram", "dst": "N2" } ] }
    v}
    The [nodes] array may list nodes that no edge mentions; edge endpoints
    are added implicitly. *)

(** A minimal JSON value tree, exposed because the CLI and tests reuse the
    parser for other payloads (session journals). *)
type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list
  | Raw of string
      (** Already-encoded JSON text, printed verbatim: the way a value
          encoded once (such as a cached node list) is spliced into many
          documents. The parser never produces it, and the printer does
          not check it. *)

exception Parse_error of int * string
(** Byte offset and message. *)

val value_of_string : string -> value
(** @raise Parse_error *)

val value_to_string : ?pretty:bool -> value -> string
(** Sizes the output first and writes it into a string of exactly that
    length. Strings escape the double quote, the backslash and the
    bytes below 0x20 (as [\n], [\r], [\t] or [\u00XX]); every other
    byte, UTF-8 included, is copied as is. *)

val string_array : ((string -> unit) -> unit) -> int * string
(** [string_array iter] is the count of strings [iter] yields and the
    bytes [value_to_string (Array (List.map (fun s -> String s) l))]
    prints for them, [l] in the order yielded. [iter] runs twice, once
    to size the output and once to write it, and must yield the same
    strings both times ([Invalid_argument] when the sizes differ). *)

val of_string : string -> Digraph.t
(** @raise Parse_error on malformed JSON or on a document without the
    expected shape. *)

val to_string : ?pretty:bool -> Digraph.t -> string

val member : string -> value -> value option
(** Object field lookup helper. *)

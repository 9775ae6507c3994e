(** Compiled path queries.

    A path query pairs a regular expression with its compiled NFA. The
    query selects a graph node iff some outgoing walk of the node spells a
    word of the expression's language (the paper's monadic RPQ
    semantics). *)

type t

val of_regex : Gps_regex.Regex.t -> t
val of_nfa : Gps_automata.Nfa.t -> t
(** The displayed expression is recovered by state elimination, lazily —
    building a query from an automaton is cheap until {!regex} or a
    printer is called. *)

val of_string : string -> (t, string) result
(** Parses the paper's notation, e.g. ["(tram+bus)*.cinema"]. *)

val of_string_exn : string -> t

val regex : t -> Gps_regex.Regex.t
val nfa : t -> Gps_automata.Nfa.t

val matches_word : t -> string list -> bool
(** Word membership (labels by name). *)

val is_inverse : string -> bool
(** Whether a symbol names an inverse step: a trailing [~], as in
    [cinema~], traverses a [cinema]-edge backwards (two-way RPQs, the
    class the survey the paper builds on calls 2RPQs). A symbol ending
    in [~] always means the inverse of its base label. *)

val base_label : string -> string
(** [base_label "tram~"] is ["tram"]; identity on plain symbols. *)

val inverse : string -> string
(** [inverse "tram"] is ["tram~"], the symbol that steps a [tram]-edge
    backwards. *)

val equal_lang : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Regex = Gps_regex.Regex
module Nfa = Gps_automata.Nfa
module Compile = Gps_automata.Compile
module Elim = Gps_automata.Elim

(* The displayed expression of an automaton-built query is computed by
   state elimination only when first asked for: the learner's inner loop
   builds thousands of candidate queries just to evaluate them. *)
type t = { regex : Regex.t Lazy.t; nfa : Nfa.t }

let of_regex regex = { regex = lazy regex; nfa = Compile.to_nfa regex }

let of_nfa nfa = { regex = lazy (Gps_automata.Simplify.simplify (Elim.to_regex nfa)); nfa }

let of_string s =
  Result.map of_regex (Gps_regex.Parse.parse s)

let of_string_exn s =
  match of_string s with Ok q -> q | Error msg -> invalid_arg ("Rpq.of_string_exn: " ^ msg)

let regex t = Lazy.force t.regex
let nfa t = t.nfa

let matches_word t w = Nfa.accepts t.nfa w

let is_inverse sym =
  let n = String.length sym in
  n > 0 && sym.[n - 1] = '~'

let base_label sym = if is_inverse sym then String.sub sym 0 (String.length sym - 1) else sym
let inverse label = label ^ "~"

let equal_lang a b =
  (* compare the automata directly — avoids forcing state elimination *)
  let module Dfa = Gps_automata.Dfa in
  Dfa.equal_lang (Dfa.determinize a.nfa) (Dfa.determinize b.nfa)

let to_string t = Regex.to_string (regex t)
let pp ppf t = Regex.pp ppf (regex t)

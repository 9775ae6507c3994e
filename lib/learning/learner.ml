module Digraph = Gps_graph.Digraph
module Pta = Gps_automata.Pta
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Pathlang = Gps_query.Pathlang
module Counter = Gps_obs.Counter
module Trace = Gps_obs.Trace
module Deadline = Gps_obs.Deadline

let c_runs = Counter.make "learner.runs"
let c_failures = Counter.make "learner.failures"

type failure =
  | Conflicting_node of Digraph.node
  | Covered_witness of Digraph.node * string list
  | Budget_exhausted of Digraph.node
  | Interrupted of Deadline.reason

type result = Learned of Rpq.t | Failed of failure

let witness_words ?fuel ?max_len ?(deadline = Deadline.none) g sample =
  let negatives = Sample.neg sample in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
        (* a deadline poll per positive node bounds the whole step even
           though each per-node pair-BFS is already fuel-bounded *)
        match Deadline.check deadline with
        | Some r -> Error (Interrupted r)
        | None -> (
            match Sample.validated sample v with
            | Some word ->
                if Pathlang.covers g negatives word then Error (Covered_witness (v, word))
                else go (word :: acc) rest
            | None -> (
                match Witness_search.search g ?fuel ?max_len v ~negatives with
                | Witness_search.Found word -> go (word :: acc) rest
                | Witness_search.Uninformative -> Error (Conflicting_node v)
                | Witness_search.Timeout -> Error (Budget_exhausted v))))
  in
  go [] (Sample.pos sample)

(* Aborts the RPNI merge loop from inside its consistency oracle — the
   only channel out of [Rpni.generalize]'s higher-order interface. *)
exception Interrupted_exn of Deadline.reason

let learn_result ?fuel ?max_len ?(deadline = Deadline.none) g sample =
  match Sample.pos sample with
  | [] ->
      (* Nothing must be selected: the empty query is consistent with any
         set of negatives. *)
      Learned (Rpq.of_regex Gps_regex.Regex.empty)
  | _ -> (
      match witness_words ?fuel ?max_len ~deadline g sample with
      | Error f -> Failed f
      | Ok words -> (
          let pta = Pta.build words in
          let negatives = Sample.neg sample in
          (* One frozen snapshot for the whole generalization: each
             candidate automaton costs a single shared-kernel evaluation
             checked against every negative at once, instead of one full
             product BFS per negative node. Frozen on the first check, so
             a sample without negatives never pays for it. *)
          let csr = lazy (Gps_graph.Csr.freeze g) in
          let consistent nfa =
            negatives = []
            ||
            let q = Rpq.of_nfa nfa in
            match Eval.run ~deadline (Eval.Frozen (g, Lazy.force csr)) q with
            | Ok (sel, _) -> not (List.exists (fun n -> sel.(n)) negatives)
            | Error { Eval.reason; _ } -> raise (Interrupted_exn reason)
          in
          match Rpni.generalize pta ~consistent with
          | nfa -> Learned (Rpq.of_nfa nfa)
          | exception Interrupted_exn r -> Failed (Interrupted r)))

let learn ?fuel ?max_len ?deadline g sample =
  Trace.with_span "learner.learn" @@ fun sp ->
  Counter.incr c_runs;
  Trace.set_int sp "pos" (List.length (Sample.pos sample));
  Trace.set_int sp "neg" (List.length (Sample.neg sample));
  let result = learn_result ?fuel ?max_len ?deadline g sample in
  (match result with
  | Learned _ -> Trace.set_str sp "result" "learned"
  | Failed _ ->
      Counter.incr c_failures;
      Trace.set_str sp "result" "failed");
  result

let pp_failure g ppf = function
  | Conflicting_node v ->
      Format.fprintf ppf
        "node %s is labeled positive but every path it has is covered by a negative node"
        (Digraph.node_name g v)
  | Covered_witness (v, w) ->
      Format.fprintf ppf "the validated path %s of node %s is covered by a negative node"
        (String.concat "." w) (Digraph.node_name g v)
  | Budget_exhausted v ->
      Format.fprintf ppf "witness search budget exhausted on node %s" (Digraph.node_name g v)
  | Interrupted r ->
      Format.fprintf ppf "learning was interrupted (%s) before completing"
        (Deadline.reason_to_string r)

let learn_exn ?fuel ?max_len g sample =
  match learn ?fuel ?max_len g sample with
  | Learned q -> q
  | Failed f -> failwith (Format.asprintf "Learner.learn_exn: %a" (pp_failure g) f)

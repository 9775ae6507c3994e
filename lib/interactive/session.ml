module Digraph = Gps_graph.Digraph
module Neighborhood = Gps_graph.Neighborhood
module Sample = Gps_learning.Sample
module Learner = Gps_learning.Learner
module Rpq = Gps_query.Rpq
module Iset = Set.Make (Int)
module Counter = Gps_obs.Counter
module Trace = Gps_obs.Trace
module Deadline = Gps_obs.Deadline

let c_steps = Counter.make "session.steps"
let c_relearns = Counter.make "session.relearns"
let c_pruned = Counter.make "session.nodes_pruned"

type config = {
  initial_radius : int;
  bound : int;
  learn_fuel : int;
  max_questions : int option;
  prefer_suggestion : [ `Longest | `Shortest ];
}

let default_config =
  {
    initial_radius = 2;
    bound = 4;
    learn_fuel = 100_000;
    max_questions = None;
    prefer_suggestion = `Longest;
  }

type halt_reason =
  | Satisfied
  | No_informative_nodes
  | Budget_exhausted
  | Inconsistent of Learner.failure
  | Interrupted of Deadline.reason

type outcome = { query : Rpq.t; reason : halt_reason }

type request =
  | Ask_label of View.neighborhood
  | Ask_path of View.path_tree
  | Propose of Rpq.t
  | Finished of outcome

type counters = {
  labels : int;
  zooms : int;
  validations : int;
  proposals : int;
  learner_runs : int;
}

let zero_counters = { labels = 0; zooms = 0; validations = 0; proposals = 0; learner_runs = 0 }

type t = {
  graph : Digraph.t;
  config : config;
  strategy : Strategy.t;
  sample : Sample.t;
  implied_pos : Iset.t;
  implied_neg : Iset.t;
  hypothesis : Rpq.t option;
  pending : request;
  counters : counters;
  scorer : Informative.t;
}

let graph t = t.graph
let sample t = t.sample
let hypothesis t = t.hypothesis
let implied_pos t = Iset.elements t.implied_pos
let implied_neg t = Iset.elements t.implied_neg
let counters t = t.counters
let questions t = t.counters.labels + t.counters.zooms + t.counters.validations
let request t = t.pending

let empty_query = Rpq.of_regex Gps_regex.Regex.empty

let current_query t = Option.value t.hypothesis ~default:empty_query

(* A finished session asks nothing more: drop the scorer's tables. *)
let finish t reason =
  Informative.release t.scorer;
  { t with pending = Finished { query = current_query t; reason } }

let strategy_context t =
  {
    Strategy.scorer = t.scorer;
    excluded =
      (fun v -> Sample.is_labeled t.sample v || Iset.mem v t.implied_pos || Iset.mem v t.implied_neg);
    negatives = Sample.neg t.sample;
  }

let over_budget t =
  match t.config.max_questions with Some b -> questions t >= b | None -> false

(* The budget is a hard cap on user answers: the moment it is reached the
   session finishes with the current hypothesis, even mid-round. *)
let guard_budget t =
  match t.pending with
  | Finished _ -> t
  | Ask_label _ | Ask_path _ | Propose _ -> if over_budget t then finish t Budget_exhausted else t

(* Pick the next node to ask about, or finish. *)
let next_question t =
  if over_budget t then finish t Budget_exhausted
  else
    match t.strategy.Strategy.choose (strategy_context t) with
    | None -> finish t No_informative_nodes
    | Some v ->
        {
          t with
          pending = Ask_label (View.make_neighborhood t.graph v ~radius:t.config.initial_radius);
        }

(* Re-learn from the current sample and move to the proposal step. A
   deadline firing mid-learn finishes the session with the previous
   hypothesis rather than poisoning the sample state. *)
let relearn ?deadline t =
  Counter.incr c_relearns;
  let t = { t with counters = { t.counters with learner_runs = t.counters.learner_runs + 1 } } in
  match Learner.learn ~fuel:t.config.learn_fuel ?deadline t.graph t.sample with
  | Learner.Learned q -> { t with hypothesis = Some q; pending = Propose q }
  | Learner.Failed (Learner.Interrupted r) -> finish t (Interrupted r)
  | Learner.Failed f -> finish t (Inconsistent f)

let prune t =
  let unlabeled =
    List.filter
      (fun v ->
        (not (Sample.is_labeled t.sample v))
        && (not (Iset.mem v t.implied_pos))
        && not (Iset.mem v t.implied_neg))
      (Digraph.nodes t.graph)
  in
  let newly =
    Propagate.implied_negatives t.scorer ~negatives:(Sample.neg t.sample) ~among:unlabeled
  in
  Counter.add c_pruned (List.length newly);
  { t with implied_neg = List.fold_left (fun s v -> Iset.add v s) t.implied_neg newly }

let start ?(config = default_config) ~strategy g =
  Trace.with_span "session.start" @@ fun _sp ->
  let t =
    {
      graph = g;
      config;
      strategy;
      sample = Sample.empty;
      implied_pos = Iset.empty;
      implied_neg = Iset.empty;
      hypothesis = None;
      pending = Finished { query = empty_query; reason = No_informative_nodes };
      counters = zero_counters;
      scorer = Informative.create g ~bound:config.bound;
    }
  in
  next_question t

let fork t = { t with scorer = Informative.copy t.scorer }

let with_budget t budget =
  let t = { t with config = { t.config with max_questions = budget } } in
  if over_budget t then finish t Budget_exhausted else t

let bump_labels t = { t with counters = { t.counters with labels = t.counters.labels + 1 } }
let bump_zooms t = { t with counters = { t.counters with zooms = t.counters.zooms + 1 } }

let bump_validations t =
  { t with counters = { t.counters with validations = t.counters.validations + 1 } }

let bump_proposals t =
  { t with counters = { t.counters with proposals = t.counters.proposals + 1 } }

(* Build the validation tree for a freshly labeled positive node. The word
   bound is the radius the user last saw; if no candidate fits in it (she
   answered early), fall back to the informativeness bound, which is
   guaranteed to contain one for a node the strategy proposed. *)
let path_tree_for t view =
  let negatives = Sample.neg t.sample in
  let prefer = t.config.prefer_suggestion in
  let radius = view.View.fragment.Neighborhood.radius in
  match View.make_path_tree t.graph ~prefer view.View.node ~negatives ~max_len:radius with
  | Some tree -> Some tree
  | None -> View.make_path_tree t.graph ~prefer view.View.node ~negatives ~max_len:t.config.bound

let answer_label ?deadline t reply =
  Trace.with_span "session.answer_label" @@ fun sp ->
  Trace.set_str sp "reply" (match reply with `Pos -> "pos" | `Neg -> "neg" | `Zoom -> "zoom");
  match t.pending with
  | Ask_label view ->
      Counter.incr c_steps;
      (
      match reply with
      | `Zoom ->
          let t = bump_zooms t in
          guard_budget
            (if Neighborhood.is_complete t.graph view.View.fragment then t
             else
               let fragment = view.View.fragment in
               let zoomed =
                 View.make_neighborhood t.graph ~previous:fragment view.View.node
                   ~radius:(fragment.Neighborhood.radius + 1)
               in
               { t with pending = Ask_label zoomed })
      | `Neg ->
          let t = bump_labels t in
          let t = { t with sample = Sample.add_neg t.sample view.View.node } in
          guard_budget (relearn ?deadline (prune t))
      | `Pos -> (
          let t = bump_labels t in
          let t = { t with sample = Sample.add_pos t.sample view.View.node } in
          if over_budget t then
            (* no room to ask for validation; learn from the bare label *)
            guard_budget (relearn ?deadline t)
          else
            match path_tree_for t view with
            | Some tree -> { t with pending = Ask_path tree }
            | None ->
                (* No uncovered path at all: the labeling is contradictory. *)
                finish t (Inconsistent (Learner.Conflicting_node view.View.node))))
  | Ask_path _ | Propose _ | Finished _ ->
      invalid_arg "Session.answer_label: no label question pending"

let answer_path ?deadline t word =
  Trace.with_span "session.answer_path" @@ fun _sp ->
  match t.pending with
  | Ask_path tree ->
      Counter.incr c_steps;
      if not (List.mem word tree.View.words) then
        invalid_arg "Session.answer_path: word is not one of the proposed candidates"
      else begin
        let t = bump_validations t in
        let t = { t with sample = Sample.validate t.sample tree.View.node word } in
        (* every node having this path is implied positive *)
        let implied = Propagate.implied_positives t.graph ~word in
        let implied_pos =
          List.fold_left
            (fun s v -> if Sample.is_labeled t.sample v then s else Iset.add v s)
            t.implied_pos implied
        in
        guard_budget (relearn ?deadline (prune { t with implied_pos }))
      end
  | Ask_label _ | Propose _ | Finished _ ->
      invalid_arg "Session.answer_path: no path validation pending"

let accept t =
  Trace.with_span "session.accept" @@ fun _sp ->
  match t.pending with
  | Propose _ ->
      Counter.incr c_steps;
      finish (bump_proposals t) Satisfied
  | Ask_label _ | Ask_path _ | Finished _ -> invalid_arg "Session.accept: no proposal pending"

let refine t =
  Trace.with_span "session.refine" @@ fun _sp ->
  match t.pending with
  | Propose _ ->
      Counter.incr c_steps;
      next_question (bump_proposals t)
  | Ask_label _ | Ask_path _ | Finished _ -> invalid_arg "Session.refine: no proposal pending"

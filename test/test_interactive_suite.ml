(* Tests for gps_interactive: informativeness, views, strategies,
   propagation, the session state machine, and full simulated sessions
   reproducing the paper's three demonstration scenarios. *)

open Gps_graph
open Gps_interactive
module Rpq = Gps_query.Rpq
module Eval = Gps_query.Eval
module Sample = Gps_learning.Sample

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let node g n = Option.get (Digraph.node_of_name g n)
let fig1 = Datasets.figure1
let goal_q = "(tram+bus)*.cinema"

(* -------------------------------------------------------------------- *)
(* Informative *)

let test_informative_no_negatives () =
  let g = fig1 () in
  let scorer = Informative.create g ~bound:3 in
  check "all nodes informative with no negatives" true
    (List.for_all (Informative.is_informative scorer ~negatives:[]) (Digraph.nodes g))

let test_informative_pruning () =
  let g = fig1 () in
  let negatives = [ node g "N5" ] in
  (* sinks C1 C2 R1 R2 only have eps, covered by N5 *)
  let scorer = Informative.create g ~bound:3 in
  let pruned =
    List.filter (fun v -> not (Informative.is_informative scorer ~negatives v)) (Digraph.nodes g)
  in
  let names = List.sort compare (List.map (Digraph.node_name g) pruned) in
  check "sinks pruned" true
    (List.for_all (fun n -> List.mem n names) [ "C1"; "C2"; "R1"; "R2" ]);
  check "N5 itself pruned" true (List.mem "N5" names);
  check "N2 not pruned" false (List.mem "N2" names)

let test_informative_score_ranking () =
  let g = fig1 () in
  let negatives = [ node g "N5" ] in
  let scorer = Informative.create g ~bound:3 in
  let score v = Option.get (Informative.score scorer ~negatives v) in
  (* N2 reaches more distinct uncovered words than the sink C1 *)
  check "N2 scores higher than C1" true (score (node g "N2") > score (node g "C1"));
  check_int "sink scores zero" 0 (score (node g "C1"))

let test_informative_many_labels () =
  (* 70 labels do not fit the scorer's label bit sets, so its last
     letter takes the general path; it must still count like
     enumeration *)
  let edges =
    List.init 70 (fun i -> ("v", Printf.sprintf "l%d" i, "x"))
    @ List.init 35 (fun i -> ("n", Printf.sprintf "l%d" (2 * i), "y"))
    @ [ ("x", "l1", "v"); ("y", "l1", "n") ]
  in
  let g = Codec.of_edges edges in
  let scorer = Informative.create g ~bound:3 in
  List.iter
    (fun negatives ->
      List.iter
        (fun v ->
          check_int
            (Printf.sprintf "%s vs %d negatives" (Digraph.node_name g v) (List.length negatives))
            (Test_learning_suite.count_uncovered g v ~negatives ~max_len:3)
            (Option.get (Informative.score scorer ~negatives v)))
        (Digraph.nodes g))
    [ []; [ node g "n" ]; [ node g "n"; node g "y" ] ]

(* -------------------------------------------------------------------- *)
(* View *)

let test_view_zoom_diff () =
  let g = fig1 () in
  let v1 = View.make_neighborhood g (node g "N2") ~radius:2 in
  let v2 =
    View.make_neighborhood g ~previous:v1.View.fragment (node g "N2") ~radius:3
  in
  check "no diff without previous" true (View.added v1 = ([], []));
  let add_nodes, _ = View.added v2 in
  check "zoom reveals C1" true
    (List.exists (fun (v, _) -> Digraph.node_name g v = "C1") add_nodes)

let test_path_tree_figure3c () =
  (* Figure 3(c): candidate paths of N2 with max_len 3, vs negative N5;
     the suggested path has length 3 (the zoomed radius) *)
  let g = fig1 () in
  match View.make_path_tree g (node g "N2") ~negatives:[ node g "N5" ] ~max_len:3 with
  | None -> Alcotest.fail "N2 must have candidates"
  | Some tree ->
      check "bus.bus.cinema among candidates" true
        (List.mem [ "bus"; "bus"; "cinema" ] tree.View.words);
      check "bus.tram.cinema among candidates" true
        (List.mem [ "bus"; "tram"; "cinema" ] tree.View.words);
      check_int "suggestion has length 3 (paper heuristic)" 3
        (List.length tree.View.suggested);
      Alcotest.(check (list string))
        "suggested is bus.bus.cinema" [ "bus"; "bus"; "cinema" ] tree.View.suggested

let test_path_tree_filters_covered () =
  let g = fig1 () in
  (* against negative N1 (covers tram, bus, ...): N2's candidate list must
     not contain words that N1 covers *)
  let negatives = [ node g "N1" ] in
  match View.make_path_tree g (node g "N2") ~negatives ~max_len:3 with
  | None -> Alcotest.fail "N2 still informative vs N1"
  | Some tree ->
      check "no covered candidate" true
        (List.for_all
           (fun w -> not (Gps_query.Pathlang.covers g negatives w))
           tree.View.words)

let test_path_tree_none () =
  let g = fig1 () in
  check "sink has no tree" true
    (View.make_path_tree g (node g "C1") ~negatives:[ node g "N5" ] ~max_len:3 = None)

let test_tree_structure () =
  let tree = View.tree_of_words [ [ "a"; "b" ]; [ "a" ]; [ "c" ] ] in
  check "root not accepting" false tree.View.accepting;
  check_int "two children" 2 (List.length tree.View.children);
  let a = List.find (fun c -> c.View.label = Some "a") tree.View.children in
  check "a accepting" true a.View.accepting;
  check_int "a has child b" 1 (List.length a.View.children);
  (* children sorted *)
  Alcotest.(check (list (option string)))
    "sorted" [ Some "a"; Some "c" ]
    (List.map (fun c -> c.View.label) tree.View.children)

(* -------------------------------------------------------------------- *)
(* Strategy *)

let context g ?(negatives = []) ?(excluded = fun _ -> false) () =
  { Strategy.scorer = Informative.create g ~bound:3; excluded; negatives }

let test_strategy_candidates () =
  let g = fig1 () in
  let ctx = context g ~negatives:[ node g "N5" ] () in
  let cs = Strategy.candidates ctx in
  check "no sink candidate" false (List.mem (node g "C1") cs);
  check "N2 candidate" true (List.mem (node g "N2") cs)

let test_strategy_exhaustion () =
  let g = fig1 () in
  let ctx = context g ~excluded:(fun _ -> true) () in
  check "random" true ((Strategy.random ~seed:1).Strategy.choose ctx = None);
  check "degree" true (Strategy.max_degree.Strategy.choose ctx = None);
  check "smart" true (Strategy.smart.Strategy.choose ctx = None)

let test_strategy_smart_picks_max_score () =
  let g = fig1 () in
  let ctx = context g ~negatives:[ node g "N5" ] () in
  match Strategy.smart.Strategy.choose ctx with
  | None -> Alcotest.fail "candidates exist"
  | Some v ->
      let score u = Informative.score ctx.Strategy.scorer ~negatives:[ node g "N5" ] u in
      check "maximal score" true
        (List.for_all (fun u -> score u <= score v) (Strategy.candidates ctx))

let test_strategy_by_name () =
  check "smart" true (Result.is_ok (Strategy.by_name ~seed:0 "smart"));
  check "unknown" true (Result.is_error (Strategy.by_name ~seed:0 "zigzag"))

(* -------------------------------------------------------------------- *)
(* Propagate *)

let test_propagate_positives () =
  let g = fig1 () in
  let implied = Propagate.implied_positives g ~word:[ "cinema" ] in
  let names = List.sort compare (List.map (Digraph.node_name g) implied) in
  Alcotest.(check (list string)) "nodes with a cinema edge" [ "N4"; "N6" ] names

let test_propagate_negatives () =
  let g = fig1 () in
  let among = Digraph.nodes g in
  let implied =
    Propagate.implied_negatives (Informative.create g ~bound:3) ~negatives:[ node g "N5" ] ~among
  in
  check "C1 implied negative" true (List.mem (node g "C1") implied);
  check "N2 not implied" false (List.mem (node g "N2") implied)

(* -------------------------------------------------------------------- *)
(* Session state machine *)

let test_session_flow_figure1 () =
  let g = fig1 () in
  let s = Session.start ~strategy:Strategy.smart g in
  (match Session.request s with
  | Session.Ask_label view ->
      check_int "initial radius 2 (paper)" 2 view.View.fragment.Neighborhood.radius
  | _ -> Alcotest.fail "expected a label question");
  (* wrong-answer APIs raise *)
  Alcotest.check_raises "answer_path out of turn"
    (Invalid_argument "Session.answer_path: no path validation pending") (fun () ->
      ignore (Session.answer_path s [ "bus" ]));
  Alcotest.check_raises "accept out of turn"
    (Invalid_argument "Session.accept: no proposal pending") (fun () ->
      ignore (Session.accept s))

let test_session_zoom_increments () =
  let g = fig1 () in
  let s = Session.start ~strategy:Strategy.smart g in
  match Session.request s with
  | Session.Ask_label view ->
      let r0 = view.View.fragment.Neighborhood.radius in
      let s = Session.answer_label s `Zoom in
      (match Session.request s with
      | Session.Ask_label view' ->
          check_int "radius incremented" (r0 + 1) view'.View.fragment.Neighborhood.radius;
          check "previous recorded" true (view'.View.previous <> None);
          check_int "zoom counted" 1 (Session.counters s).Session.zooms
      | _ -> Alcotest.fail "still labeling")
  | _ -> Alcotest.fail "expected label question"

let test_session_neg_then_propose () =
  let g = fig1 () in
  let s = Session.start ~strategy:Strategy.smart g in
  match Session.request s with
  | Session.Ask_label _ -> (
      let s = Session.answer_label s `Neg in
      match Session.request s with
      | Session.Propose q ->
          check "hypothesis consistent: selects no negative" true
            (Eval.consistent g q ~pos:[] ~neg:(Sample.neg (Session.sample s)))
      | Session.Finished _ -> Alcotest.fail "should propose after one label"
      | _ -> Alcotest.fail "expected proposal")
  | _ -> Alcotest.fail "expected label question"

let test_session_budget () =
  let g = fig1 () in
  let config = { Session.default_config with max_questions = Some 1 } in
  let s = Session.start ~config ~strategy:Strategy.smart g in
  match Session.request s with
  | Session.Ask_label _ -> (
      let s = Session.answer_label s `Neg in
      (* one question spent; next request after proposal must finish *)
      match Session.request s with
      | Session.Propose _ -> (
          let s = Session.refine s in
          match Session.request s with
          | Session.Finished o -> check "budget" true (o.Session.reason = Session.Budget_exhausted)
          | _ -> Alcotest.fail "expected Finished")
      | Session.Finished o -> check "budget" true (o.Session.reason = Session.Budget_exhausted)
      | _ -> Alcotest.fail "unexpected request")
  | _ -> Alcotest.fail "expected label question"

(* -------------------------------------------------------------------- *)
(* Full simulated sessions: the paper's scenarios *)

let test_simulation_learns_goal_fig1 () =
  (* demo scenario 3: interactive labeling WITH path validation learns the
     goal query *)
  let g = fig1 () in
  let goal = Rpq.of_string_exn goal_q in
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  check "ends satisfied or exhausted" true
    (match trace.Simulate.outcome.Session.reason with
    | Session.Satisfied | Session.No_informative_nodes -> true
    | _ -> false);
  check "learned query selects the goal set" true
    (Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal);
  check "took at least one question" true (trace.Simulate.questions > 0)

let test_simulation_prunes () =
  let g = fig1 () in
  let goal = Rpq.of_string_exn goal_q in
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  check "pruning happened" true (trace.Simulate.pruned > 0)

let test_simulation_fewer_questions_than_nodes () =
  (* the whole point: fewer interactions than labeling every node *)
  let g = Generators.city (Generators.default_city ~districts:16) ~seed:5 in
  let goal = Rpq.of_string_exn goal_q in
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  check "reached goal" true
    (Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal);
  check "fewer labels than nodes" true
    (trace.Simulate.counters.Session.labels < Digraph.n_nodes g)

let test_simulation_strategies_all_converge () =
  let g = fig1 () in
  let goal = Rpq.of_string_exn "tram*.restaurant" in
  List.iter
    (fun strategy ->
      let trace = Simulate.run g ~strategy ~user:(Oracle.perfect ~goal) in
      check (strategy.Strategy.name ^ " converges") true
        (Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal))
    [ Strategy.random ~seed:7; Strategy.max_degree; Strategy.smart ]

let test_simulation_eager_user_weaker () =
  (* demo scenario 2 flavour: the eager user never zooms; the session must
     still terminate cleanly with a query consistent with her labels *)
  let g = fig1 () in
  let goal = Rpq.of_string_exn goal_q in
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.eager ~goal) in
  let q = trace.Simulate.outcome.Session.query in
  (match trace.Simulate.outcome.Session.reason with
  | Session.Inconsistent _ -> Alcotest.fail "eager labeling is still goal-consistent"
  | Session.Satisfied | Session.No_informative_nodes | Session.Budget_exhausted
  | Session.Interrupted _ -> ());
  check "no zooms happened" true (trace.Simulate.counters.Session.zooms = 0);
  check "query consistent with the final sample" true
    (Eval.consistent g q ~pos:[] ~neg:[])

let test_simulation_history_recorded () =
  let g = fig1 () in
  let goal = Rpq.of_string_exn goal_q in
  let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
  check "history nonempty" true (trace.Simulate.history <> []);
  check "question counts increase" true
    (let qs = List.map (fun s -> s.Simulate.at_questions) trace.Simulate.history in
     List.sort compare qs = qs)

let test_interactions_to_learn () =
  let g = fig1 () in
  let goal = Rpq.of_string_exn goal_q in
  match Simulate.interactions_to_learn g ~strategy:Strategy.smart ~goal with
  | Some n ->
      check "positive" true (n > 0);
      (* far fewer user answers than 10 nodes x (label+zoom+validate) *)
      check "bounded" true (n <= 30)
  | None -> Alcotest.fail "smart strategy must reach the goal on figure 1"

(* -------------------------------------------------------------------- *)
(* The memoized scorer and the lazy-greedy strategy against word
   enumeration, along whole dialogs *)

let count_uncovered = Test_learning_suite.count_uncovered

(* The reference smart choice: the first candidate of highest enumerated
   score, among the non-excluded nodes informative by enumeration. *)
let reference_candidates g ~bound ~negatives ~excluded =
  List.filter
    (fun v ->
      (not (excluded v)) && (negatives = [] || count_uncovered g v ~negatives ~max_len:bound > 0))
    (Digraph.nodes g)

let reference_choice g ~bound ~negatives ~excluded =
  Strategy.best_by
    (fun v -> count_uncovered g v ~negatives ~max_len:bound)
    (reference_candidates g ~bound ~negatives ~excluded)

let excluded_in s v =
  Sample.is_labeled (Session.sample s) v
  || List.mem v (Session.implied_pos s)
  || List.mem v (Session.implied_neg s)

(* At every state: the session's proposal is the reference's, its pruned
   nodes are exactly the uninformative unlabeled ones, and a scorer
   living across the whole run (undos included) agrees with enumeration
   on every node's informativeness, score and candidacy. *)
let state_agrees scorer g ~bound s =
  let negatives = Sample.neg (Session.sample s) in
  let excluded = excluded_in s in
  let reference = reference_choice g ~bound ~negatives ~excluded in
  let proposal_ok =
    match Session.request s with
    | Session.Ask_label view -> reference = Some view.View.node
    | Session.Finished { Session.reason = Session.No_informative_nodes; _ } -> reference = None
    | Session.Ask_path _ | Session.Propose _ | Session.Finished _ -> true
  in
  let pruned = Session.implied_neg s in
  let open_node v =
    (not (Sample.is_labeled (Session.sample s) v)) && not (List.mem v (Session.implied_pos s))
  in
  proposal_ok
  && Strategy.candidates { Strategy.scorer; excluded; negatives }
     = reference_candidates g ~bound ~negatives ~excluded
  && List.for_all
       (fun v ->
         let c = count_uncovered g v ~negatives ~max_len:bound in
         let informative = negatives = [] || c > 0 in
         Informative.is_informative scorer ~negatives v = informative
         && Informative.score scorer ~negatives v = Some c
         && ((not (open_node v)) || List.mem v pruned = not informative))
       (Digraph.nodes g)

let summary g s =
  match Session.request s with
  | Session.Ask_label v ->
      Printf.sprintf "label %s r%d" (Digraph.node_name g v.View.node)
        v.View.fragment.Neighborhood.radius
  | Session.Ask_path t ->
      Printf.sprintf "path %s %s" (Digraph.node_name g t.View.node)
        (String.concat "|" (List.map (String.concat ".") t.View.words))
  | Session.Propose q -> "propose " ^ Rpq.to_string q
  | Session.Finished o -> "finished " ^ Rpq.to_string o.Session.query

type dialog_case = {
  n : int;
  edges : (int * int * int) list;
  bound : int;
  user : int;  (* 0 perfect, 1 noisy, 2 zooming *)
  goal : int;
  other_goal : int;
  seed : int;
  strategy : int;  (* 0 smart, 1 degree, 2 sequential, 3 random; for the fork cases *)
  budget : int option;  (* the fork cases' budget *)
}

let dialog_goals = [| "a"; "b.c"; "(a+b)*.c"; "a.b*"; "c*.a"; "b" |]

let case_graph c =
  let g = Digraph.create () in
  for v = 0 to c.n - 1 do
    ignore (Digraph.add_node g (Printf.sprintf "n%d" v))
  done;
  List.iter
    (fun (src, l, dst) -> Digraph.add_edge g ~src ~label:(String.make 1 "abc".[l]) ~dst)
    c.edges;
  g

let case_user c ~kind ~goal =
  let goal = Rpq.of_string_exn dialog_goals.(goal) in
  match kind with
  | 0 -> Oracle.perfect ~goal
  | 1 -> Oracle.noisy ~goal ~flip:0.3 ~seed:c.seed
  | _ -> Oracle.hesitant ~goal ~extra_zooms:2

let arb_dialog_case =
  let open QCheck in
  make
    ~print:(fun c ->
      Printf.sprintf "n=%d bound=%d user=%d goal=%d/%d seed=%d strategy=%d budget=%s edges=[%s]"
        c.n c.bound c.user c.goal c.other_goal c.seed c.strategy
        (match c.budget with None -> "none" | Some b -> string_of_int b)
        (String.concat "; "
           (List.map (fun (s, l, d) -> Printf.sprintf "%d-%c->%d" s "abc".[l] d) c.edges)))
    Gen.(
      let* n = int_range 1 8 in
      let* labels = int_range 1 3 in
      let* edges =
        list_size (int_bound ((2 * n) + 4))
          (triple (int_bound (n - 1)) (int_bound (labels - 1)) (int_bound (n - 1)))
      in
      let* bound = int_range 1 4 in
      let* user = int_bound 2 in
      let* goal = int_bound (Array.length dialog_goals - 1) in
      let* other_goal = int_bound (Array.length dialog_goals - 1) in
      let* seed = int_bound 10_000 in
      let* strategy = int_bound 3 in
      let* budget = oneofl [ None; Some 0; Some 1; Some 3 ] in
      return { n; edges; bound; user; goal; other_goal; seed; strategy; budget })

(* A random walk through one dialog: the user's answers, with an undo
   one step in six. Checks every state; returns the states of the
   effective path and its answers as a journal. *)
let random_dialog c g =
  let config = { Session.default_config with Session.bound = c.bound } in
  let user = case_user c ~kind:c.user ~goal:c.goal in
  let rng = Prng.create ~seed:c.seed in
  let scorer = Informative.create g ~bound:c.bound in
  let name v = Some (Digraph.node_name g v) in
  let rec go h answers steps =
    let s = History.current h in
    if not (state_agrees scorer g ~bound:c.bound s) then None
    else if steps = 0 then Some (s, List.rev answers)
    else if History.depth h > 0 && Prng.int rng 6 = 0 then
      go (Option.get (History.undo h)) (List.tl answers) (steps - 1)
    else
      match History.request h with
      | Session.Finished _ -> Some (s, List.rev answers)
      | Session.Ask_label v ->
          let a = user.Oracle.label g v in
          go (History.answer_label h a) (Journal.Label (name v.View.node, a) :: answers) (steps - 1)
      | Session.Ask_path t ->
          let w = user.Oracle.validate g t in
          go (History.answer_path h w) (Journal.Validate (name t.View.node, w) :: answers) (steps - 1)
      | Session.Propose q ->
          let ok = user.Oracle.satisfied g q in
          go
            ((if ok then History.accept else History.refine) h)
            (Journal.Satisfied (Rpq.to_string q, ok) :: answers)
            (steps - 1)
  in
  go (History.start ~config ~strategy:Strategy.smart g) [] 40

(* Replay a journal through a fresh session, as crash recovery does,
   requiring each label and validation to be about the recorded node. *)
let replay c g journal =
  let config = { Session.default_config with Session.bound = c.bound } in
  let about v = function Some n -> n = Digraph.node_name g v | None -> false in
  List.fold_left
    (fun s a ->
      match (Session.request s, a) with
      | Session.Ask_label v, Journal.Label (n, pol) when about v.View.node n ->
          Session.answer_label s pol
      | Session.Ask_path t, Journal.Validate (n, w) when about t.View.node n ->
          Session.answer_path s w
      | Session.Propose _, Journal.Satisfied (_, ok) ->
          if ok then Session.accept s else Session.refine s
      | _ -> failwith "journal replay diverged")
    (Session.start ~config ~strategy:Strategy.smart g)
    journal

(* Summaries of the first [steps] states of a goal-driven dialog, one
   [advance] at a time, so two dialogs can be interleaved. *)
let advance g user s =
  match Session.request s with
  | Session.Finished _ -> s
  | Session.Ask_label v -> Session.answer_label s (user.Oracle.label g v)
  | Session.Ask_path t -> Session.answer_path s (user.Oracle.validate g t)
  | Session.Propose q -> if user.Oracle.satisfied g q then Session.accept s else Session.refine s

let interleaving_agrees c g =
  let config = { Session.default_config with Session.bound = c.bound } in
  let start () = Session.start ~config ~strategy:Strategy.smart g in
  let user_a () = case_user c ~kind:0 ~goal:c.goal
  and user_b () = case_user c ~kind:c.user ~goal:c.other_goal in
  let alone user =
    let user = user () in
    let rec go s k acc = if k = 0 then List.rev acc else go (advance g user s) (k - 1) (summary g s :: acc) in
    go (start ()) 25 []
  in
  let a = user_a () and b = user_b () in
  let rec both sa sb k acc_a acc_b =
    if k = 0 then (List.rev acc_a, List.rev acc_b)
    else
      let acc_a = summary g sa :: acc_a in
      let sa = advance g a sa in
      let acc_b = summary g sb :: acc_b in
      both sa (advance g b sb) (k - 1) acc_a acc_b
  in
  both (start ()) (start ()) 25 [] [] = (alone user_a, alone user_b)

(* The fork cases: a session forked from a template (a session just
   started with no budget, never stepped) and put under a budget must
   go on exactly as the same session started fresh, step by step: its
   view, questions, counters and halt reason, and the scoring work of
   each step. Strategies are made fresh for every session. *)

let c_scores = Gps_obs.Counter.make "informative.scores"
let c_entries = Gps_obs.Counter.make "informative.memo_entries"

let reason s =
  match Session.request s with
  | Session.Finished { Session.reason = r; _ } -> (
      match r with
      | Session.Satisfied -> "satisfied"
      | Session.No_informative_nodes -> "no-informative-nodes"
      | Session.Budget_exhausted -> "budget-exhausted"
      | Session.Inconsistent _ -> "inconsistent"
      | Session.Interrupted _ -> "interrupted")
  | Session.Ask_label _ | Session.Ask_path _ | Session.Propose _ -> ""

let observe g s work = (summary g s, reason s, Session.questions s, Session.counters s, work)

type dialog = {
  g : Digraph.t;
  user : Oracle.user;
  mutable s : Session.t;
  mutable seen : (string * string * int * Session.counters * (int * int)) list;
}

let dialog g user s = { g; user; s; seen = [ observe g s (0, 0) ] }

(* One answer, recording what the new state shows and the scores and
   memo entries the step added. *)
let step d =
  let scores = Gps_obs.Counter.value c_scores and entries = Gps_obs.Counter.value c_entries in
  d.s <- advance d.g d.user d.s;
  let work =
    (Gps_obs.Counter.value c_scores - scores, Gps_obs.Counter.value c_entries - entries)
  in
  d.seen <- observe d.g d.s work :: d.seen

let forks_agree c g =
  let config budget =
    { Session.default_config with Session.bound = c.bound; max_questions = budget }
  in
  let strategy () =
    match c.strategy with
    | 0 -> Strategy.smart
    | 1 -> Strategy.max_degree
    | 2 -> Strategy.sequential
    | _ -> Strategy.random ~seed:c.seed
  in
  let fresh budget = Session.start ~config:(config budget) ~strategy:(strategy ()) g in
  let template () = fresh None in
  let fork t budget = Session.with_budget (Session.fork t) budget in
  let user_a () = case_user c ~kind:0 ~goal:c.goal
  and user_b () = case_user c ~kind:c.user ~goal:c.other_goal in
  let alone user s =
    let d = dialog g (user ()) s in
    for _ = 1 to 25 do
      step d
    done;
    d.seen
  in
  let forked = alone user_b (fork (template ()) c.budget) in
  forked = alone user_b (fresh c.budget)
  (* two forks of one template share its strategy, and random's
     generator is state of its own: only one fork of a random session
     may pick nodes *)
  && (c.strategy = 3
     ||
     let t = template () in
     let a = dialog g (user_a ()) (fork t None) and b = dialog g (user_b ()) (fork t c.budget) in
     for _ = 1 to 25 do
       step a;
       step b
     done;
     (a.seen, b.seen) = (alone user_a (fresh None), forked))

let dialog_property =
  QCheck.Test.make
    ~name:
      "smart equals enumeration reference along dialogs with undo, replay, interleaving and \
       forks"
    ~count:200 arb_dialog_case (fun c ->
      let g = case_graph c in
      match random_dialog c g with
      | None -> false
      | Some (final, journal) ->
          let journal =
            match Journal.of_json (Journal.to_json journal) with
            | Ok j -> j
            | Error e -> failwith e
          in
          summary g (replay c g journal) = summary g final
          && interleaving_agrees c g && forks_agree c g)

let propagate_property =
  let open QCheck in
  Test.make ~name:"implied positives equal covers on every node, unknown labels included"
    ~count:200
    (pair arb_dialog_case
       (make Gen.(list_size (int_bound 4) (oneofl [ "a"; "b"; "c"; "z" ]))))
    (fun (c, word) ->
      let g = case_graph c in
      Propagate.implied_positives g ~word
      = List.filter (fun v -> Gps_query.Pathlang.covers g [ v ] word) (Digraph.nodes g))

(* -------------------------------------------------------------------- *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  let arb_city =
    make
      Gen.(
        let* d = int_range 8 20 in
        let* seed = int_range 0 2_000 in
        return (Generators.city (Generators.default_city ~districts:d) ~seed))
  in
  [
    Test.make ~name:"simulated sessions always end consistent with the oracle labels" ~count:30
      arb_city (fun g ->
        let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
        let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
        match trace.Simulate.outcome.Session.reason with
        | Session.Inconsistent _ -> false
        | _ ->
            (* the final query never selects a node the goal rejects among
               those the oracle actually labeled — i.e. it agrees with the
               goal on the labeled sample *)
            Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal);
    Test.make ~name:"pruned nodes are never goal-selected when goal avoids negatives" ~count:30
      arb_city (fun g ->
        let goal = Rpq.of_string_exn "metro*.museum" in
        let trace = Simulate.run g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal) in
        ignore trace;
        true);
    Test.make ~name:"questions never exceed an explicit budget" ~count:30 arb_city (fun g ->
        let goal = Rpq.of_string_exn "(tram+bus)*.cinema" in
        let config = { Session.default_config with Session.max_questions = Some 5 } in
        let trace = Simulate.run ~config g ~strategy:(Strategy.random ~seed:1) ~user:(Oracle.perfect ~goal) in
        trace.Simulate.questions <= 5);
    dialog_property;
    propagate_property;
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "interactive.informative",
      [
        t "no negatives" test_informative_no_negatives;
        t "pruning" test_informative_pruning;
        t "score ranking" test_informative_score_ranking;
        t "many labels" test_informative_many_labels;
      ] );
    ( "interactive.view",
      [
        t "zoom diff (Fig 3a/3b)" test_view_zoom_diff;
        t "path tree (Fig 3c)" test_path_tree_figure3c;
        t "filters covered" test_path_tree_filters_covered;
        t "no tree for sink" test_path_tree_none;
        t "tree structure" test_tree_structure;
      ] );
    ( "interactive.strategy",
      [
        t "candidates" test_strategy_candidates;
        t "exhaustion" test_strategy_exhaustion;
        t "smart maximizes score" test_strategy_smart_picks_max_score;
        t "by_name" test_strategy_by_name;
      ] );
    ( "interactive.propagate",
      [ t "positives" test_propagate_positives; t "negatives" test_propagate_negatives ] );
    ( "interactive.session",
      [
        t "flow" test_session_flow_figure1;
        t "zoom" test_session_zoom_increments;
        t "neg then propose" test_session_neg_then_propose;
        t "budget" test_session_budget;
      ] );
    ( "interactive.simulation",
      [
        t "learns goal on figure 1 (scenario 3)" test_simulation_learns_goal_fig1;
        t "prunes uninformative nodes" test_simulation_prunes;
        t "fewer labels than nodes" test_simulation_fewer_questions_than_nodes;
        t "all strategies converge" test_simulation_strategies_all_converge;
        t "eager user (scenario 2)" test_simulation_eager_user_weaker;
        t "history" test_simulation_history_recorded;
        t "interactions_to_learn" test_interactions_to_learn;
      ] );
    ("interactive.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

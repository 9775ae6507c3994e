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
  match Json.value_of_string {| "é€" |} with
  | Json.String s -> Alcotest.(check string) "utf-8 encoded" "\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "expected a string"

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
  (* shape errors for graphs *)
  match Json.of_string {| {"nodes": []} |} with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "graph without edges field must be rejected"

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

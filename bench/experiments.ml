(* The experiment suite: one function per table/figure of DESIGN.md's
   experiment index. Each prints the rows the paper (and its companion
   research paper) reports; EXPERIMENTS.md records the expected shapes. *)

module Digraph = Gps.Graph.Digraph
module Strategy = Gps.Interactive.Strategy
module Oracle = Gps.Interactive.Oracle
module Simulate = Gps.Interactive.Simulate
module Session = Gps.Interactive.Session
module Sample = Gps.Learning.Sample
module Learner = Gps.Learning.Learner
module Eval = Gps.Query.Eval
module Metrics = Gps.Query.Metrics
module Rpq = Gps.Query.Rpq
module Prng = Gps.Graph.Prng
module View = Gps.Interactive.View
open Workloads

(* ---------------------------------------------------------------- *)
(* FIG-1: the motivating example and its selection *)

let fig1 () =
  rule ();
  print_endline "FIG-1  the geographical database and q = (tram+bus)*.cinema";
  rule ();
  let { graph = g; _ } = figure1 () in
  Format.printf "%a@." Digraph.pp g;
  let goal = q "(tram+bus)*.cinema" in
  Printf.printf "\nq selects: %s   (paper: N1, N2, N4, N6)\n"
    (String.concat ", " (Gps.evaluate g goal));
  List.iter
    (fun v ->
      match Gps.Query.Witness.find g goal v with
      | Some w -> Printf.printf "  %s\n" (Gps.Viz.Ascii.witness g w)
      | None -> ())
    (Eval.select_nodes g goal)

(* ---------------------------------------------------------------- *)
(* FIG-2: one traced interactive session (the scenario loop) *)

let fig2 () =
  rule ();
  print_endline "FIG-2  interactive scenario trace on Figure 1";
  rule ();
  let { graph = g; _ } = figure1 () in
  let goal = q "(tram+bus)*.cinema" in
  let transcript =
    Gps.Interactive.Transcript.record g ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal)
  in
  print_string (Gps.Interactive.Transcript.render g transcript)

(* ---------------------------------------------------------------- *)
(* FIG-3a/3b: the zoomable neighborhood views *)

let fig3ab () =
  rule ();
  print_endline "FIG-3a/3b  neighborhood of N2 at radius 2, then zoomed to 3";
  rule ();
  let { graph = g; _ } = figure1 () in
  let n2 = Option.get (Digraph.node_of_name g "N2") in
  let v2 = View.make_neighborhood g n2 ~radius:2 in
  print_string (Gps.Viz.Ascii.neighborhood g v2);
  print_newline ();
  let v3 = View.make_neighborhood g ~previous:v2.View.fragment n2 ~radius:3 in
  print_string (Gps.Viz.Ascii.neighborhood g v3)

(* FIG-3c: the candidate-path prefix tree *)

let fig3c () =
  rule ();
  print_endline "FIG-3c  candidate paths of N2 (length <= 3) given negative N5";
  rule ();
  let { graph = g; _ } = figure1 () in
  let n2 = Option.get (Digraph.node_of_name g "N2") in
  let n5 = Option.get (Digraph.node_of_name g "N5") in
  match View.make_path_tree g n2 ~negatives:[ n5 ] ~max_len:3 with
  | Some tree -> print_string (Gps.Viz.Ascii.path_tree tree)
  | None -> print_endline "unexpected: no candidates"

(* ---------------------------------------------------------------- *)
(* EXP-INT: user interactions per strategy (the headline comparison) *)

let seeds = [ 11; 23; 37 ]

(* Static baseline: label uniformly random nodes until the learned query
   matches the goal on the instance; returns the number of labels (capped
   at |V|). *)
let static_labels g goal seed =
  let rng = Prng.create ~seed in
  let sel = Eval.select g goal in
  let order = Prng.shuffle rng (Digraph.nodes g) in
  let rec go sample used = function
    | [] -> used
    | v :: rest -> (
        let sample = if sel.(v) then Sample.add_pos sample v else Sample.add_neg sample v in
        let used = used + 1 in
        match Learner.learn g sample with
        | Learner.Learned lq when Eval.select g lq = sel -> used
        | Learner.Learned _ -> go sample used rest
        | Learner.Failed _ -> used)
  in
  go Sample.empty 0 order

let run_interactive g goal strategy =
  let trace = Simulate.run g ~strategy ~user:(Oracle.perfect ~goal) in
  let reached = Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal in
  (reached, trace)

let interactions () =
  rule ();
  print_endline
    "EXP-INT  user answers to reach the goal query (mean over seeds; L = labels only)";
  rule ();
  Printf.printf "%-12s %-5s %-30s %7s %7s %7s %7s %8s\n" "dataset" "query" "goal" "smart"
    "random" "degree" "smartL" "staticL";
  let datasets =
    [
      (city ~districts:24 ~seed:1, city_queries);
      (city ~districts:48 ~seed:2, city_queries);
      (bio ~nodes:120 ~seed:3, bio_queries);
    ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal = 0 then
            Printf.printf "%-12s %-5s %-30s %s\n" ds.name qname qs "(empty answer; skipped)"
          else begin
            let per_strategy strategy =
              mean
                (List.map
                   (fun seed ->
                     let strat =
                       if strategy = "random" then Strategy.random ~seed
                       else Result.get_ok (Strategy.by_name ~seed strategy)
                     in
                     let reached, trace = run_interactive ds.graph goal strat in
                     if reached then float_of_int trace.Simulate.questions
                     else float_of_int (2 * Digraph.n_nodes ds.graph))
                   seeds)
            in
            let smart_labels =
              mean
                (List.map
                   (fun seed ->
                     ignore seed;
                     let _, trace = run_interactive ds.graph goal Strategy.smart in
                     float_of_int trace.Simulate.counters.Session.labels)
                   [ 1 ])
            in
            let static_mean =
              mean (List.map (fun s -> float_of_int (static_labels ds.graph goal s)) seeds)
            in
            Printf.printf "%-12s %-5s %-30s %7.1f %7.1f %7.1f %7.1f %8.1f\n" ds.name qname qs
              (per_strategy "smart") (per_strategy "random") (per_strategy "degree")
              smart_labels static_mean
          end)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* EXP-PRUNE: how much of the graph the user never has to look at *)

let pruning () =
  rule ();
  print_endline "EXP-PRUNE  nodes pruned as uninformative / implied positive";
  rule ();
  Printf.printf "%-12s %-5s %6s %8s %8s %8s %9s\n" "dataset" "query" "|V|" "labeled" "pruned"
    "implied+" "untouched";
  let datasets =
    [
      (city ~districts:24 ~seed:1, city_queries);
      (city ~districts:48 ~seed:2, city_queries);
      (bio ~nodes:120 ~seed:3, bio_queries);
    ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then begin
            let _, trace = run_interactive ds.graph goal Strategy.smart in
            let n = Digraph.n_nodes ds.graph in
            let labeled = trace.Simulate.counters.Session.labels in
            let untouched = n - labeled - trace.Simulate.pruned - trace.Simulate.implied_pos in
            Printf.printf "%-12s %-5s %6d %8d %8d %8d %9d\n" ds.name qname n labeled
              trace.Simulate.pruned trace.Simulate.implied_pos (max 0 untouched)
          end)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* EXP-TIME: scaling of the kernels (whole sessions: --exp session_scale) *)

let time_once f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.0)

let time_best ~repeat f =
  let best = ref infinity in
  for _ = 1 to repeat do
    let _, ms = time_once f in
    if ms < !best then best := ms
  done;
  !best

let time_scaling () =
  rule ();
  print_endline "EXP-TIME  per-operation latency vs graph size (ms; best of 3)";
  rule ();
  Printf.printf "%7s %7s %10s %12s %12s\n" "|V|" "|E|" "eval(ms)" "witness(ms)" "learn(ms)";
  List.iter
    (fun districts ->
      let ds = city ~districts ~seed:5 in
      let g = ds.graph in
      let goal = q "(tram+bus)*.cinema" in
      let eval_ms = time_best ~repeat:3 (fun () -> ignore (Eval.select g goal)) in
      let witness_ms =
        time_best ~repeat:3 (fun () ->
            ignore (Gps.Query.Witness.find g goal 0))
      in
      let sel = Eval.select g goal in
      let nodes = Digraph.nodes g in
      let pos = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> sel.(v)) nodes) in
      let neg =
        List.filteri (fun i _ -> i < 3) (List.filter (fun v -> not sel.(v)) nodes)
      in
      let sample = List.fold_left Sample.add_pos Sample.empty pos in
      let sample = List.fold_left Sample.add_neg sample neg in
      let learn_ms = time_best ~repeat:3 (fun () -> ignore (Learner.learn g sample)) in
      Printf.printf "%7d %7d %10.2f %12.2f %12.2f\n" (Digraph.n_nodes g) (Digraph.n_edges g)
        eval_ms witness_ms learn_ms)
    [ 25; 50; 100; 200; 400 ]

(* ---------------------------------------------------------------- *)
(* EXP-F1: quality of the intermediate hypotheses (learning curve) *)

let f1_curve () =
  rule ();
  print_endline "EXP-F1  F-measure of the hypothesis vs user answers (mean over queries)";
  rule ();
  let ds = city ~districts:32 ~seed:4 in
  let checkpoints = [ 2; 4; 6; 8; 12; 16; 24 ] in
  Printf.printf "%-8s" "answers";
  List.iter (fun c -> Printf.printf " %8d" c) checkpoints;
  print_newline ();
  let curve strategy =
    (* F1 of the latest hypothesis proposed at <= c answers, averaged *)
    let per_query (_, qs) =
      let goal = q qs in
      if Eval.count ds.graph goal = 0 then None
      else begin
        let trace = Simulate.run ds.graph ~strategy ~user:(Oracle.perfect ~goal) in
        let expected = Eval.select ds.graph goal in
        let f1_at c =
          let applicable =
            List.filter (fun s -> s.Simulate.at_questions <= c) trace.Simulate.history
          in
          match List.rev applicable with
          | [] -> 0.0
          | last :: _ ->
              (Metrics.score_sets ~expected ~got:(Eval.select ds.graph last.Simulate.hypothesis))
                .Metrics.f1
        in
        Some (List.map f1_at checkpoints)
      end
    in
    let rows = List.filter_map per_query city_queries in
    List.map (fun i -> mean (List.map (fun row -> List.nth row i) rows))
      (List.init (List.length checkpoints) Fun.id)
  in
  List.iter
    (fun (name, strategy) ->
      Printf.printf "%-8s" name;
      List.iter (fun v -> Printf.printf " %8.3f" v) (curve strategy);
      print_newline ())
    [ ("smart", Strategy.smart); ("random", Strategy.random ~seed:1) ]

(* ---------------------------------------------------------------- *)
(* EXP-PV: what path validation buys (demo scenarios 2 vs 3) *)

let path_validation () =
  rule ();
  print_endline "EXP-PV  goal recovery with vs without path validation effort";
  rule ();
  Printf.printf "%-12s %-5s %-30s %12s %12s\n" "dataset" "query" "goal" "with (3)"
    "without (2)";
  let datasets =
    [
      (figure1 (), [ ("q", "(tram+bus)*.cinema") ]);
      (city ~districts:24 ~seed:1, city_queries);
      (bio ~nodes:120 ~seed:3, bio_queries);
    ]
  in
  let recovered g goal user =
    let trace = Simulate.run g ~strategy:Strategy.smart ~user in
    Eval.select g trace.Simulate.outcome.Session.query = Eval.select g goal
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then
            Printf.printf "%-12s %-5s %-30s %12b %12b\n" ds.name qname qs
              (recovered ds.graph goal (Oracle.perfect ~goal))
              (recovered ds.graph goal (Oracle.eager ~goal)))
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* EXP-STATIC: free labeling vs guided interaction *)

let static_comparison () =
  rule ();
  print_endline "EXP-STATIC  static free labeling vs interactive answers (mean over seeds)";
  rule ();
  Printf.printf "%-12s %-5s %8s %11s %13s\n" "dataset" "query" "|V|" "static lbl" "interactive";
  let datasets =
    [
      (figure1 (), [ ("q", "(tram+bus)*.cinema") ]);
      (city ~districts:24 ~seed:1, city_queries);
      (city ~districts:48 ~seed:2, city_queries);
    ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then begin
            let stat =
              mean (List.map (fun s -> float_of_int (static_labels ds.graph goal s)) seeds)
            in
            let inter =
              let _, trace = run_interactive ds.graph goal Strategy.smart in
              trace.Simulate.questions
            in
            Printf.printf "%-12s %-5s %8d %11.1f %13d\n" ds.name qname
              (Digraph.n_nodes ds.graph) stat inter
          end)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* ABL-GEN: what state-merging generalization buys (learner ablation) *)

let generalize_ablation () =
  rule ();
  print_endline
    "ABL-GEN  learner ablation: F1 of the final query / its size (RPNI vs baselines)";
  rule ();
  Printf.printf "%-12s %-5s %10s %10s %10s %8s %8s %8s\n" "dataset" "query" "rpniF1" "disjF1"
    "unionF1" "rpni|q|" "disj|q|" "union|q|";
  let datasets =
    [ (city ~districts:24 ~seed:1, city_queries); (bio ~nodes:120 ~seed:3, bio_queries) ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then begin
            (* spread the sample across the answer set (every k-th selected
               node) so the witness words are diverse — a clustered sample
               makes every learner coincide and hides the ablation *)
            let sel = Eval.select ds.graph goal in
            let nodes = Digraph.nodes ds.graph in
            let spread k l =
              let n = List.length l in
              let stride = max 1 (n / k) in
              List.filteri (fun i _ -> i mod stride = 0) l
              |> List.filteri (fun i _ -> i < k)
            in
            let pos = spread 5 (List.filter (fun v -> sel.(v)) nodes) in
            let neg = spread 5 (List.filter (fun v -> not sel.(v)) nodes) in
            let sample = List.fold_left Sample.add_pos Sample.empty pos in
            let sample = List.fold_left Sample.add_neg sample neg in
            (* validate each positive with its path of interest (shortest
               goal witness), as the interactive scenario would — without
               validated paths every learner falls back to the same
               trivial uncovered words and the ablation shows nothing *)
            let sample =
              List.fold_left
                (fun s v ->
                  match Gps.Query.Witness.find ds.graph goal v with
                  | Some w -> Sample.validate s v w.Gps.Query.Witness.word
                  | None -> s)
                sample pos
            in
            let score learn =
              match learn ds.graph sample with
              | Learner.Learned lq ->
                  let f1 =
                    (Metrics.score ds.graph ~goal ~hypothesis:lq).Metrics.f1
                  in
                  (f1, Gps.Regex.Regex.size (Rpq.regex lq))
              | Learner.Failed _ -> (nan, 0)
            in
            let rpni_f1, rpni_sz = score (fun g s -> Learner.learn g s) in
            let disj_f1, disj_sz = score (fun g s -> Gps.Learning.Baseline.disjunction g s) in
            let union_f1, union_sz = score (fun g s -> Gps.Learning.Baseline.label_union g s) in
            Printf.printf "%-12s %-5s %10.3f %10.3f %10.3f %8d %8d %8d\n" ds.name qname rpni_f1
              disj_f1 union_f1 rpni_sz disj_sz union_sz
          end)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* ABL-EVAL: evaluation against the NFA product vs the minimized-DFA
   product *)

let eval_ablation () =
  rule ();
  print_endline "ABL-EVAL  evaluation via NFA product vs minimized-DFA product (ms, best of 5)";
  rule ();
  Printf.printf "%7s %-30s %8s %8s %10s %10s\n" "|V|" "query" "|Qnfa|" "|Qdfa|" "nfa(ms)"
    "dfa(ms)";
  List.iter
    (fun districts ->
      let ds = city ~districts ~seed:5 in
      List.iter
        (fun qs ->
          let goal = q qs in
          let nfa_states = Gps.Automata.Nfa.n_states (Rpq.nfa goal) in
          let dfa =
            Gps.Automata.Dfa.minimize (Gps.Automata.Dfa.determinize (Rpq.nfa goal))
          in
          let via_dfa = Rpq.of_nfa (Gps.Automata.Dfa.to_nfa dfa) in
          let nfa_ms = time_best ~repeat:5 (fun () -> ignore (Eval.select ds.graph goal)) in
          let dfa_ms = time_best ~repeat:5 (fun () -> ignore (Eval.select ds.graph via_dfa)) in
          Printf.printf "%7d %-30s %8d %8d %10.3f %10.3f\n" (Digraph.n_nodes ds.graph) qs
            nfa_states dfa.Gps.Automata.Dfa.n_states nfa_ms dfa_ms)
        [ "(tram+bus)*.cinema"; "(bus+tram).(bus+tram).cinema"; "metro*.museum" ])
    [ 50; 200 ]

(* ---------------------------------------------------------------- *)
(* ABL-MIN: Hopcroft vs Brzozowski minimization *)

let minimize_ablation () =
  rule ();
  print_endline "ABL-MIN  DFA minimization: Hopcroft vs Brzozowski (ms over 200 random regexes)";
  rule ();
  let rng = Prng.create ~seed:77 in
  let syms = [ "a"; "b"; "c" ] in
  let rec random_regex depth =
    if depth = 0 then Gps.Regex.Regex.sym (Prng.pick rng syms)
    else
      match Prng.int rng 4 with
      | 0 -> Gps.Regex.Regex.sym (Prng.pick rng syms)
      | 1 -> Gps.Regex.Regex.alt [ random_regex (depth - 1); random_regex (depth - 1) ]
      | 2 -> Gps.Regex.Regex.seq [ random_regex (depth - 1); random_regex (depth - 1) ]
      | _ -> Gps.Regex.Regex.star (random_regex (depth - 1))
  in
  let regexes = List.init 200 (fun _ -> random_regex 5) in
  let nfas = List.map Gps.Automata.Compile.to_nfa regexes in
  let dfas = List.map Gps.Automata.Dfa.determinize nfas in
  let hop_ms =
    time_best ~repeat:3 (fun () -> List.iter (fun d -> ignore (Gps.Automata.Dfa.minimize d)) dfas)
  in
  let brz_ms =
    time_best ~repeat:3 (fun () ->
        List.iter (fun a -> ignore (Gps.Automata.Dfa.minimize_brzozowski a)) nfas)
  in
  Printf.printf "hopcroft (incl. determinize amortized out): %8.2f ms\n" hop_ms;
  Printf.printf "brzozowski (from the NFA, both reversals) : %8.2f ms\n" brz_ms;
  let agree =
    List.for_all2
      (fun d a ->
        Gps.Automata.Dfa.equal_lang (Gps.Automata.Dfa.minimize d)
          (Gps.Automata.Dfa.minimize_brzozowski a))
      dfas nfas
  in
  Printf.printf "languages agree on all 200 inputs        : %b\n" agree

(* ---------------------------------------------------------------- *)
(* ABL-BOUND: the informativeness bound k *)

let bound_ablation () =
  rule ();
  print_endline "ABL-BOUND  informativeness bound k: answers and session time (city-32)";
  rule ();
  Printf.printf "%6s %10s %12s %12s\n" "k" "answers" "reached" "session(ms)";
  let ds = city ~districts:32 ~seed:4 in
  List.iter
    (fun k ->
      let config = { Session.default_config with Session.bound = k } in
      let run_one (_, qs) =
        let goal = q qs in
        if Eval.count ds.graph goal = 0 then None
        else begin
          let t0 = Sys.time () in
          let trace =
            Simulate.run ~config ds.graph ~strategy:Strategy.smart ~user:(Oracle.perfect ~goal)
          in
          let ms = (Sys.time () -. t0) *. 1000.0 in
          let ok = Eval.select ds.graph trace.Simulate.outcome.Session.query = Eval.select ds.graph goal in
          Some (float_of_int trace.Simulate.questions, (if ok then 1.0 else 0.0), ms)
        end
      in
      let rows = List.filter_map run_one city_queries in
      let avg f = mean (List.map f rows) in
      Printf.printf "%6d %10.1f %12.2f %12.1f\n" k
        (avg (fun (a, _, _) -> a))
        (avg (fun (_, b, _) -> b))
        (avg (fun (_, _, c) -> c)))
    [ 2; 3; 4; 6 ]

(* ---------------------------------------------------------------- *)
(* ABL-SUGG: the path-suggestion heuristic (longest vs shortest) under a
   trusting user who always accepts the suggestion *)

let suggestion_ablation () =
  rule ();
  print_endline
    "ABL-SUGG  suggestion heuristic under a trusting user (recovers goal on instance?)";
  rule ();
  Printf.printf "%-12s %-5s %-30s %10s %10s\n" "dataset" "query" "goal" "longest" "shortest";
  let datasets =
    [
      (figure1 (), [ ("q", "(tram+bus)*.cinema") ]);
      (city ~districts:24 ~seed:1, city_queries);
      (bio ~nodes:120 ~seed:3, bio_queries);
    ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then begin
            let run prefer =
              let config = { Session.default_config with Session.prefer_suggestion = prefer } in
              let trace =
                Simulate.run ~config ds.graph ~strategy:Strategy.smart
                  ~user:(Oracle.trusting ~goal)
              in
              Eval.select ds.graph trace.Simulate.outcome.Session.query
              = Eval.select ds.graph goal
            in
            Printf.printf "%-12s %-5s %-30s %10b %10b\n" ds.name qname qs (run `Longest)
              (run `Shortest)
          end)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* EXP-CONV: the identification guarantee — examples needed until the
   learner's output selects exactly the goal's nodes (teacher protocol) *)

let convergence () =
  rule ();
  print_endline
    "EXP-CONV  examples until convergence (counterexample teacher; paper: polynomial)";
  rule ();
  Printf.printf "%-12s %-5s %-30s %9s %8s %9s\n" "dataset" "query" "goal" "examples" "|goal|"
    "|learned|";
  let transpole = { name = "transpole"; graph = Gps.Graph.Datasets.transpole () } in
  let datasets =
    [
      (figure1 (), [ ("q", "(tram+bus)*.cinema") ]);
      (transpole, [ ("T1", "metro*.cinema"); ("T2", "(metro+tram+bus)*.museum"); ("T3", "bus.park") ]);
      (city ~districts:24 ~seed:1, city_queries);
      (bio ~nodes:120 ~seed:3, bio_queries);
    ]
  in
  List.iter
    (fun (ds, queries) ->
      List.iter
        (fun (qname, qs) ->
          let goal = q qs in
          if Eval.count ds.graph goal > 0 then
            match Gps.Learning.Convergence.teach ds.graph ~goal with
            | Ok p ->
                Printf.printf "%-12s %-5s %-30s %9d %8d %9d\n" ds.name qname qs
                  (Sample.size p.Gps.Learning.Convergence.sample)
                  (Gps.Regex.Regex.size (Rpq.regex goal))
                  (Gps.Regex.Regex.size (Rpq.regex p.Gps.Learning.Convergence.learned))
            | Error p ->
                Printf.printf "%-12s %-5s %-30s %9s (gave up after %d rounds)\n" ds.name qname
                  qs "-" p.Gps.Learning.Convergence.rounds)
        queries)
    datasets

(* ---------------------------------------------------------------- *)
(* ABL-CSR: a fresh freeze per evaluation vs a held CSR snapshot *)

let csr_ablation () =
  rule ();
  print_endline
    "ABL-CSR  evaluation with a per-call CSR freeze vs on a held snapshot (ms, best of 5)";
  rule ();
  Printf.printf "%7s %7s %14s %12s %9s\n" "|V|" "|E|" "freeze+run(ms)" "run(ms)" "ratio";
  List.iter
    (fun districts ->
      let ds = city ~districts ~seed:5 in
      let g = ds.graph in
      let source = Eval.Frozen (g, Gps.Graph.Csr.freeze g) in
      let goal = q "(tram+bus)*.cinema" in
      let lists_ms = time_best ~repeat:5 (fun () -> ignore (Eval.select g goal)) in
      let csr_ms = time_best ~repeat:5 (fun () -> ignore (Eval.run source goal)) in
      Printf.printf "%7d %7d %14.3f %12.3f %8.1fx\n" (Digraph.n_nodes g) (Digraph.n_edges g)
        lists_ms csr_ms (lists_ms /. csr_ms))
    [ 50; 200; 800; 3200 ]

(* ---------------------------------------------------------------- *)
(* ABL-INC: incremental evaluation vs recompute-from-scratch under edge
   insertions *)

let incremental_ablation () =
  rule ();
  print_endline
    "ABL-INC  maintaining selection under edge insertions: scratch vs incremental (ms total)";
  rule ();
  Printf.printf "%7s %8s %12s %12s %9s\n" "|V|" "inserts" "scratch(ms)" "incr(ms)" "speedup";
  List.iter
    (fun districts ->
      let full = (city ~districts ~seed:6).graph in
      let goal = q "(tram+bus)*.cinema" in
      (* hold back a third of the edges, then insert them one by one *)
      let edges = Digraph.edges full in
      let keep, inserts =
        List.partition (fun e -> Hashtbl.hash e mod 3 <> 0) edges
      in
      let base () =
        let g = Digraph.create () in
        Digraph.iter_nodes (fun v -> ignore (Digraph.add_node g (Digraph.node_name full v))) full;
        List.iter
          (fun e ->
            Digraph.link g
              (Digraph.node_name full e.Digraph.src)
              (Digraph.label_name full e.Digraph.lbl)
              (Digraph.node_name full e.Digraph.dst))
          keep;
        g
      in
      let insert g e =
        Digraph.add_edge g ~src:e.Digraph.src
          ~label:(Digraph.label_name full e.Digraph.lbl)
          ~dst:e.Digraph.dst
      in
      (* node ids coincide: base creates nodes in the same order *)
      let scratch_ms =
        let g = base () in
        let t0 = Sys.time () in
        List.iter
          (fun e ->
            insert g e;
            ignore (Eval.select g goal))
          inserts;
        (Sys.time () -. t0) *. 1000.0
      in
      let incr_ms =
        let g = base () in
        let inc = Gps.Query.Incremental.create g goal in
        let t0 = Sys.time () in
        List.iter
          (fun e ->
            insert g e;
            Gps.Query.Incremental.add_edge inc ~src:e.Digraph.src
              ~label:(Digraph.label_name full e.Digraph.lbl)
              ~dst:e.Digraph.dst;
            ignore (Gps.Query.Incremental.count inc))
          inserts;
        (Sys.time () -. t0) *. 1000.0
      in
      Printf.printf "%7d %8d %12.2f %12.2f %8.1fx\n" (Digraph.n_nodes full)
        (List.length inserts) scratch_ms incr_ms (scratch_ms /. incr_ms))
    [ 50; 200; 800 ]

(* ---------------------------------------------------------------- *)
(* EXP-USERS: sensitivity to user behavior *)

let user_matrix () =
  rule ();
  print_endline
    "EXP-USERS  user-behavior sensitivity (mean over city queries; answers / goal recovery)";
  rule ();
  Printf.printf "%-14s %10s %8s %8s %10s\n" "user" "answers" "zooms" "reached" "validations";
  let ds = city ~districts:32 ~seed:4 in
  let users goal =
    [
      ("perfect", Oracle.perfect ~goal);
      ("eager", Oracle.eager ~goal);
      ("hesitant(+2)", Oracle.hesitant ~goal ~extra_zooms:2);
      ("trusting", Oracle.trusting ~goal);
    ]
  in
  let by_user = Hashtbl.create 8 in
  List.iter
    (fun (_, qs) ->
      let goal = q qs in
      if Eval.count ds.graph goal > 0 then
        List.iter
          (fun (name, user) ->
            let trace = Simulate.run ds.graph ~strategy:Strategy.smart ~user in
            let reached =
              Eval.select ds.graph trace.Simulate.outcome.Session.query = Eval.select ds.graph goal
            in
            let row =
              ( float_of_int trace.Simulate.questions,
                float_of_int trace.Simulate.counters.Session.zooms,
                (if reached then 1.0 else 0.0),
                float_of_int trace.Simulate.counters.Session.validations )
            in
            Hashtbl.replace by_user name
              (row :: Option.value ~default:[] (Hashtbl.find_opt by_user name)))
          (users goal))
    city_queries;
  List.iter
    (fun name ->
      match Hashtbl.find_opt by_user name with
      | None -> ()
      | Some rows ->
          let avg f = mean (List.map f rows) in
          Printf.printf "%-14s %10.1f %8.1f %8.2f %10.1f\n" name
            (avg (fun (a, _, _, _) -> a))
            (avg (fun (_, b, _, _) -> b))
            (avg (fun (_, _, c, _) -> c))
            (avg (fun (_, _, _, d) -> d)))
    [ "perfect"; "eager"; "hesitant(+2)"; "trusting" ]

(* ---------------------------------------------------------------- *)
(* EXP-LSTAR: the active-learning ideal — queries Angluin's L* needs to
   identify each goal language exactly (vs the session's answer counts) *)

let lstar_counts () =
  rule ();
  print_endline
    "EXP-LSTAR  L* with a perfect teacher: queries to identify each goal language exactly";
  rule ();
  Printf.printf "%-5s %-32s %12s %12s %8s\n" "query" "goal" "membership" "equivalence" "states";
  List.iter
    (fun (qname, qs) ->
      let goal = q qs in
      match Gps.Learning.Lstar.learn_query goal with
      | Ok (learned, stats) ->
          let open Gps.Learning.Lstar in
          Printf.printf "%-5s %-32s %12d %12d %8d %s\n" qname qs stats.membership_queries
            stats.equivalence_queries stats.states
            (if Rpq.equal_lang learned goal then "" else "(NOT EQUAL!)")
      | Error e -> Printf.printf "%-5s %-32s error: %s\n" qname qs e)
    (city_queries @ bio_queries)

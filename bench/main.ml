(* gps benchmark harness.

   dune exec bench/main.exe              runs every experiment
   dune exec bench/main.exe -- --exp ID  runs one (fig1 fig2 fig3ab fig3c
                                         interactions pruning time f1
                                         pathval static users convergence
                                         lstar generalize eval minimize csr
                                         sampled incremental bound
                                         suggestion micro server_dispatch
                                         baseline eval_scale load_storm ooc)
   dune exec bench/main.exe -- --list    lists experiment ids

   Each experiment regenerates one table/figure of DESIGN.md's experiment
   index; EXPERIMENTS.md records paper-vs-measured shapes. *)

let micro () =
  Workloads.rule ();
  print_endline "MICRO  kernel latencies (Bechamel, monotonic clock, ns/run)";
  Workloads.rule ();
  let open Bechamel in
  let open Bechamel.Toolkit in
  let g = (Workloads.city ~districts:50 ~seed:8).Workloads.graph in
  let goal = Workloads.q "(tram+bus)*.cinema" in
  let nfa = Gps.Query.Rpq.nfa goal in
  let sel = Gps.Query.Eval.select g goal in
  let nodes = Gps.Graph.Digraph.nodes g in
  let pos = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> sel.(v)) nodes) in
  let neg = List.filteri (fun i _ -> i < 3) (List.filter (fun v -> not sel.(v)) nodes) in
  let sample = List.fold_left Gps.Learning.Sample.add_pos Gps.Learning.Sample.empty pos in
  let sample = List.fold_left Gps.Learning.Sample.add_neg sample neg in
  let tests =
    [
      Test.make ~name:"eval.select (city-50)"
        (Staged.stage (fun () -> ignore (Gps.Query.Eval.select g goal)));
      Test.make ~name:"witness.find"
        (Staged.stage (fun () -> ignore (Gps.Query.Witness.find g goal (List.hd pos))));
      Test.make ~name:"witness_search (3 negatives)"
        (Staged.stage (fun () ->
             ignore (Gps.Learning.Witness_search.search g (List.hd pos) ~negatives:neg)));
      Test.make ~name:"informative.score (bound 4)"
        (Staged.stage (fun () ->
             ignore (Gps.Interactive.Informative.score g ~negatives:neg ~bound:4 (List.hd pos))));
      Test.make ~name:"learner.learn (3+/3-)"
        (Staged.stage (fun () -> ignore (Gps.Learning.Learner.learn g sample)));
      Test.make ~name:"regex.compile (Glushkov)"
        (Staged.stage (fun () ->
             ignore (Gps.Automata.Compile.to_nfa (Gps.Query.Rpq.regex goal))));
      Test.make ~name:"dfa.minimize"
        (Staged.stage
           (let d = Gps.Automata.Dfa.determinize nfa in
            fun () -> ignore (Gps.Automata.Dfa.minimize d)));
      Test.make ~name:"neighborhood radius 2"
        (Staged.stage (fun () ->
             ignore (Gps.Graph.Neighborhood.compute g (List.hd pos) ~radius:2)));
    ]
  in
  let grouped = Test.make_grouped ~name:"gps" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-42s %12.0f ns/run\n" name est)
    (List.sort compare rows)

let experiments =
  [
    ("fig1", Experiments.fig1);
    ("fig2", Experiments.fig2);
    ("fig3ab", Experiments.fig3ab);
    ("fig3c", Experiments.fig3c);
    ("interactions", Experiments.interactions);
    ("pruning", Experiments.pruning);
    ("time", Experiments.time_scaling);
    ("f1", Experiments.f1_curve);
    ("pathval", Experiments.path_validation);
    ("static", Experiments.static_comparison);
    ("users", Experiments.user_matrix);
    ("convergence", Experiments.convergence);
    ("lstar", Experiments.lstar_counts);
    ("generalize", Experiments.generalize_ablation);
    ("eval", Experiments.eval_ablation);
    ("minimize", Experiments.minimize_ablation);
    ("csr", Experiments.csr_ablation);
    ("sampled", Experiments.sampled_ablation);
    ("incremental", Experiments.incremental_ablation);
    ("bound", Experiments.bound_ablation);
    ("suggestion", Experiments.suggestion_ablation);
    ("micro", micro);
    ("server_dispatch", Server_bench.run);
    ("baseline", Baseline.run);
    ("eval_scale", Eval_scale.run);
    ("load_storm", Load_storm.run);
    ("ooc", Ooc.run);
  ]

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "--list" :: _ -> List.iter (fun (name, _) -> print_endline name) experiments
  | _ :: "--exp" :: id :: _ -> (
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; use --list\n" id;
          exit 1)
  | _ ->
      List.iter
        (fun (_, f) ->
          f ();
          print_newline ())
        experiments

(* Tests for gps_query: evaluation semantics on the paper's Figure 1 and on
   synthetic graphs, witnesses, path languages, metrics. The central
   cross-check: product-based selection must agree with brute-force
   bounded path enumeration + derivative matching on acyclic cases. *)

open Gps_graph
open Gps_query

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let q s = Rpq.of_string_exn s

let node g n = Option.get (Digraph.node_of_name g n)

let selected_names g query =
  List.sort compare (List.map (Digraph.node_name g) (Eval.select_nodes g query))

(* -------------------------------------------------------------------- *)
(* The paper's motivating example *)

let test_figure1_selection () =
  let g = Datasets.figure1 () in
  Alcotest.(check (list string))
    "q selects exactly N1 N2 N4 N6 (paper, Section 2)" Datasets.figure1_expected
    (selected_names g (q "(tram+bus)*.cinema"))

let test_figure1_bus_query () =
  (* Section 3: the query `bus` is consistent with +N2 +N6 -N5 *)
  let g = Datasets.figure1 () in
  let sel = Eval.select g (q "bus") in
  check "selects N2" true sel.(node g "N2");
  check "selects N6" true sel.(node g "N6");
  check "not N5" false sel.(node g "N5")

let test_figure1_consistency () =
  let g = Datasets.figure1 () in
  let pos = [ node g "N2"; node g "N6" ] and neg = [ node g "N5" ] in
  check "goal query consistent" true (Eval.consistent g (q "(tram+bus)*.cinema") ~pos ~neg);
  check "bus also consistent" true (Eval.consistent g (q "bus") ~pos ~neg);
  check "tram not consistent (misses N6)" false (Eval.consistent g (q "tram") ~pos ~neg);
  check "restaurant not consistent (selects N5)" false (Eval.consistent g (q "restaurant") ~pos ~neg)

let test_figure1_restaurant () =
  let g = Datasets.figure1 () in
  let sel = selected_names g (q "tram*.restaurant") in
  check "N5 selected" true (List.mem "N5" sel);
  check "N3 selected" true (List.mem "N3" sel);
  check "N4 not selected" false (List.mem "N4" sel)

(* -------------------------------------------------------------------- *)
(* Evaluation semantics *)

let test_epsilon_selects_everything () =
  let g = Datasets.figure1 () in
  check_int "eps selects all nodes" (Digraph.n_nodes g) (Eval.count g (q "eps"));
  check_int "a* with foreign label also selects all" (Digraph.n_nodes g)
    (Eval.count g (q "zzz*"))

let test_empty_selects_nothing () =
  let g = Datasets.figure1 () in
  check_int "empty" 0 (Eval.count g (q "empty"));
  check_int "foreign symbol" 0 (Eval.count g (q "zzz"))

let test_cycle_star () =
  (* a self-loop makes arbitrarily long words available *)
  let g = Codec.of_edges [ ("a", "x", "a"); ("a", "y", "b") ] in
  let sel = Eval.select g (q "x.x.x.x.x.y") in
  check "deep star through cycle" true sel.(node g "a");
  check "b not selected" false sel.(node g "b")

let test_selection_monotone_under_union () =
  let g = Generators.city (Generators.default_city ~districts:12) ~seed:1 in
  let s1 = Eval.select g (q "tram.cinema") in
  let s2 = Eval.select g (q "tram.cinema+bus.cinema") in
  Array.iteri (fun i b -> if b then check "monotone" true s2.(i)) s1

(* The kernel reads a snapshot's cells behind one range check per
   node; a run that trips it raises, and must not leave the next run a
   dirty scratch table. *)
let test_corrupt_offsets_then_good_run () =
  let g = Datasets.figure1 () in
  let good = Csr.freeze g in
  let copy a =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Bigarray.Array1.dim a) in
    Bigarray.Array1.blit a b;
    b
  in
  let in_off = copy (Csr.in_off good) in
  (* an interior offset past the cells: node 2's range ends beyond them *)
  in_off.{3} <- Csr.n_edges good + 5;
  let bad =
    Csr.of_arrays ~n_labels:(Csr.n_labels good) ~out_off:(copy (Csr.out_off good)) ~in_off
      ~out_cells:(copy (Csr.out_cells good)) ~in_cells:(copy (Csr.in_cells good))
  in
  let query = q "(tram+bus)*.cinema" in
  Alcotest.check_raises "corrupt offsets raise" (Invalid_argument "Csr: offsets out of range")
    (fun () -> ignore (Eval.run (Eval.Frozen (g, bad)) query));
  match Eval.run (Eval.Frozen (g, good)) query with
  | Ok (sel, _) ->
      Alcotest.(check (list string)) "the next run answers" Datasets.figure1_expected
        (List.sort compare
           (List.filter_map
              (fun v -> if sel.(v) then Some (Digraph.node_name g v) else None)
              (Digraph.nodes g)))
  | Error _ -> Alcotest.fail "no deadline, no interruption"

(* Four threads share the kernel's scratch slot while they evaluate on
   graphs of four sizes: every answer equals the sequential one. *)
let test_concurrent_runs () =
  let graphs =
    List.map
      (fun nodes ->
        let g = Generators.uniform ~nodes ~edges:(3 * nodes) ~labels:[ "a"; "b"; "c" ] ~seed:nodes in
        Eval.Frozen (g, Csr.freeze g))
      [ 300; 1500; 6000; 12_000 ]
  in
  let queries =
    List.map q [ "(a+b)*.c"; "a.b*.c~"; "(a.b)*"; "c*.a.a"; "b~.(a+c)*"; "a+b.c" ]
  in
  let selection src query =
    match Eval.run src query with Ok (sel, _) -> sel | Error _ -> Alcotest.fail "no deadline"
  in
  let work = List.concat_map (fun src -> List.map (fun query -> (src, query)) queries) graphs in
  let expected = List.map (fun (src, query) -> selection src query) work in
  let n = List.length work in
  let pairs = Array.of_list (List.combine work expected) in
  let mismatches = Atomic.make 0 in
  let worker k =
    for round = 0 to 2 do
      for i = 0 to n - 1 do
        let (src, query), want = pairs.((i + (k * n / 4) + round) mod n) in
        if selection src query <> want then Atomic.incr mismatches
      done
    done
  in
  List.iter Thread.join (List.init 4 (fun k -> Thread.create worker k));
  check_int "concurrent = sequential" 0 (Atomic.get mismatches)

(* -------------------------------------------------------------------- *)
(* Witness *)

let test_witness_figure1 () =
  let g = Datasets.figure1 () in
  let query = q "(tram+bus)*.cinema" in
  (match Witness.find g query (node g "N4") with
  | Some w ->
      Alcotest.(check (list string)) "N4 witness word" [ "cinema" ] w.Witness.word;
      Alcotest.(check (list string)) "N4 witness walk" [ "N4"; "C1" ]
        (List.map (Digraph.node_name g) w.Witness.walk)
  | None -> Alcotest.fail "N4 should have a witness");
  (match Witness.find g query (node g "N2") with
  | Some w ->
      check_int "N2 shortest witness has length 3" 3 (List.length w.Witness.word);
      check "witness word matched by query" true (Rpq.matches_word query w.Witness.word)
  | None -> Alcotest.fail "N2 should have a witness");
  check "N5 has no witness" true (Witness.find g query (node g "N5") = None)

let test_witness_epsilon () =
  let g = Datasets.figure1 () in
  match Witness.find g (q "cinema*") (node g "N5") with
  | Some w ->
      check "empty word witness" true (w.Witness.word = []);
      Alcotest.(check (list string)) "trivial walk" [ "N5" ]
        (List.map (Digraph.node_name g) w.Witness.walk)
  | None -> Alcotest.fail "nullable query selects everything"

let test_witness_all_selected () =
  let g = Datasets.figure1 () in
  let query = q "(tram+bus)*.cinema" in
  let ws = Witness.find_all_selected g query in
  check_int "4 witnesses" 4 (List.length ws);
  List.iter
    (fun (v, w) ->
      check "walk starts at node" true (List.hd w.Witness.walk = v);
      check "word accepted" true (Rpq.matches_word query w.Witness.word))
    ws

let test_witness_pp () =
  let g = Datasets.figure1 () in
  let w = Option.get (Witness.find g (q "tram.cinema") (node g "N1")) in
  Alcotest.(check string) "render" "N1 -tram-> N4 -cinema-> C1"
    (Format.asprintf "%a" (Witness.pp g) w)

(* -------------------------------------------------------------------- *)
(* Pathlang *)

let test_pathlang_accepts_paths () =
  let g = Datasets.figure1 () in
  let a = Pathlang.of_node g (node g "N2") in
  let open Gps_automata in
  check "bus" true (Nfa.accepts a [ "bus" ]);
  check "bus.tram.cinema" true (Nfa.accepts a [ "bus"; "tram"; "cinema" ]);
  check "epsilon always a path" true (Nfa.accepts a []);
  check "cinema not a path of N2" false (Nfa.accepts a [ "cinema" ])

let test_pathlang_union () =
  let g = Datasets.figure1 () in
  let a = Pathlang.of_nodes g [ node g "N5"; node g "N6" ] in
  let open Gps_automata in
  check "N5 contributes tram" true (Nfa.accepts a [ "tram" ]);
  check "N6 contributes cinema" true (Nfa.accepts a [ "cinema" ]);
  check "neither has tram.cinema" false (Nfa.accepts a [ "tram"; "cinema" ]);
  check "empty list = empty language" true (Nfa.is_empty_lang (Pathlang.of_nodes g []))

let test_pathlang_covers () =
  let g = Datasets.figure1 () in
  check "N5 covers tram.restaurant" true
    (Pathlang.covers g [ node g "N5" ] [ "tram"; "restaurant" ]);
  check "N5 does not cover bus" false (Pathlang.covers g [ node g "N5" ] [ "bus" ]);
  check "unknown label never covered" false (Pathlang.covers g [ node g "N5" ] [ "zzz" ]);
  check "no nodes cover nothing" false (Pathlang.covers g [] [])

let test_pathlang_disjoint () =
  let g = Datasets.figure1 () in
  check "goal query disjoint from N5's paths" true
    (Pathlang.disjoint_from g (node g "N5") (q "(tram+bus)*.cinema"));
  check "not disjoint from N2's" false
    (Pathlang.disjoint_from g (node g "N2") (q "(tram+bus)*.cinema"))

(* -------------------------------------------------------------------- *)
(* Metrics *)

let test_metrics_perfect () =
  let g = Datasets.figure1 () in
  let goal = q "(tram+bus)*.cinema" in
  let m = Metrics.score g ~goal ~hypothesis:goal in
  check "f1 = 1" true (m.Metrics.f1 = 1.0);
  check "exact" true (Metrics.exact g ~goal ~hypothesis:goal)

let test_metrics_partial () =
  let g = Datasets.figure1 () in
  let goal = q "(tram+bus)*.cinema" in
  (* `cinema` catches only N4 and N6 of the four targets *)
  let m = Metrics.score g ~goal ~hypothesis:(q "cinema") in
  check_int "tp" 2 m.Metrics.true_pos;
  check_int "fn" 2 m.Metrics.false_neg;
  check_int "fp" 0 m.Metrics.false_pos;
  check "precision 1" true (m.Metrics.precision = 1.0);
  check "recall 0.5" true (m.Metrics.recall = 0.5);
  check "not exact" false (Metrics.exact g ~goal ~hypothesis:(q "cinema"))

let test_metrics_empty_cases () =
  let expected = [| false; false |] and got = [| false; false |] in
  let m = Metrics.score_sets ~expected ~got in
  check "P=R=1 when both empty" true (m.Metrics.precision = 1.0 && m.Metrics.recall = 1.0);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.score_sets: arrays of different lengths") (fun () ->
      ignore (Metrics.score_sets ~expected ~got:[| true |]))

(* -------------------------------------------------------------------- *)
(* Rpq *)

let test_rpq_parse_error () =
  match Rpq.of_string "((" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error msg -> check "error message" true (String.length msg > 0)

let test_rpq_of_nfa_roundtrip () =
  let original = q "(a+b)*.c" in
  let back = Rpq.of_nfa (Rpq.nfa original) in
  check "same language after elimination" true (Rpq.equal_lang original back)

(* -------------------------------------------------------------------- *)
(* Properties: product evaluation vs brute-force path enumeration *)

(* The reference oracle shares no code with the kernel: a forward BFS
   from (v, r) over (node, Brzozowski derivative) pairs, where an edge
   u -a-> w leads from (u, d) to (w, derive a d) and, read backwards,
   from (w, d) to (u, derive a~ d). Node v is selected iff the search
   reaches a pair on a [target] node whose derivative is nullable, and
   the depth of the first such pair is its shortest witness length. The
   search terminates: the smart constructors keep alternations flat,
   sorted and deduplicated, so a regex has finitely many distinct
   derivatives. *)
let reference_lengths ?(target = fun _ -> true) g r =
  let module Regex = Gps_regex.Regex in
  let module Deriv = Gps_regex.Deriv in
  Array.init (Digraph.n_nodes g) (fun v ->
      let seen = Hashtbl.create 64 in
      let visit (w, d) =
        if Regex.is_empty_lang d || Hashtbl.mem seen (w, d) then false
        else begin
          Hashtbl.add seen (w, d) ();
          true
        end
      in
      let step (u, d) =
        let along suffix (lbl, w) = (w, Deriv.derive (Digraph.label_name g lbl ^ suffix) d) in
        List.filter visit
          (List.map (along "") (Digraph.out_edges g u) @ List.map (along "~") (Digraph.in_edges g u))
      in
      let rec bfs depth = function
        | [] -> None
        | frontier when List.exists (fun (w, d) -> target w && Regex.nullable d) frontier ->
            Some depth
        | frontier -> bfs (depth + 1) (List.concat_map step frontier)
      in
      bfs 0 (List.filter visit [ (v, r) ]))

(* [w] is a walk from [v] spelling a word of [query]: a step on [l]
   follows an edge u -l-> u', a step on [l~] an edge u' -l-> u. *)
let witness_ok g query v (w : Witness.t) =
  let edge src l dst =
    List.exists (fun (lbl, d) -> d = dst && Digraph.label_name g lbl = l) (Digraph.out_edges g src)
  in
  let rec steps = function
    | [ _ ], [] -> true
    | u :: (u' :: _ as walk), sym :: word ->
        (if Rpq.is_inverse sym then edge u' (Rpq.base_label sym) u else edge u sym u')
        && steps (walk, word)
    | _ -> false
  in
  Rpq.matches_word query w.word && List.hd w.walk = v && steps (w.walk, w.word)

(* The selection and EXPLAIN report of [query] on a fresh snapshot. *)
let report g query = Result.get_ok (Eval.run (Frozen (g, Csr.freeze g)) query)

(* [f] over a freshly packed, mmapped copy of [g]; the file is removed
   afterwards. *)
let with_packed g f =
  let path = Filename.temp_file "gps_eval" ".csr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Disk_csr.pack_digraph g ~path;
      match Disk_csr.open_map path with
      | Ok packed -> f packed
      | Error e -> Alcotest.failf "open_map: %s" (Disk_csr.open_error_to_string e))

let qcheck_tests =
  let open QCheck in
  let arb_graph =
    make
      Gen.(
        let* n = int_range 2 10 in
        let* m = int_range 1 25 in
        let* seed = int_range 0 10_000 in
        return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed))
  in
  let gen_regex =
    (* star-free on purpose: bounded-length enumeration is then complete,
       making brute force an exact oracle *)
    Gen.(
      let sym = oneofl [ "a"; "b"; "c" ] in
      fix
        (fun self n ->
          if n <= 1 then map Gps_regex.Regex.sym sym
          else
            frequency
              [
                (3, map Gps_regex.Regex.sym sym);
                ( 2,
                  map2
                    (fun a b -> Gps_regex.Regex.alt [ a; b ])
                    (self (n / 2)) (self (n / 2)) );
                ( 3,
                  map2
                    (fun a b -> Gps_regex.Regex.seq [ a; b ])
                    (self (n / 2)) (self (n / 2)) );
              ])
        6)
  in
  let arb_starfree = make ~print:Gps_regex.Regex.to_string gen_regex in
  (* with star and inverse symbols: richer automata (cycles in the
     product, backward steps), checked against the derivative-search
     reference, which needs no length bound; a quarter are the PathForge
     shapes AQ1-AQ28 over the same symbols *)
  let gen_regex_starred =
    Gen.(
      let sym = oneofl [ "a"; "b"; "c"; "a~"; "b~" ] in
      let random =
        fix
          (fun self n ->
            if n <= 1 then map Gps_regex.Regex.sym sym
            else
              frequency
                [
                  (3, map Gps_regex.Regex.sym sym);
                  ( 2,
                    map2
                      (fun a b -> Gps_regex.Regex.alt [ a; b ])
                      (self (n / 2)) (self (n / 2)) );
                  ( 3,
                    map2
                      (fun a b -> Gps_regex.Regex.seq [ a; b ])
                      (self (n / 2)) (self (n / 2)) );
                  (2, map Gps_regex.Regex.star (self (n / 2)));
                ])
          8
      in
      let pattern =
        let* p = oneofl Gps_workload.Pattern.all in
        map3 (fun a b c -> Gps_workload.Pattern.instantiate p ~a ~b ~c) sym sym sym
      in
      frequency [ (3, random); (1, pattern) ])
  in
  let arb_starred = make ~print:Gps_regex.Regex.to_string gen_regex_starred in
  (* the same graph over 65 labels: 62 fillers first, so a, b and c
     get ids 62, 63 and 64 — past what the kernel's per-state label
     masks hold — and every edge gains a filler twin no query reads *)
  let widen g =
    let w = Digraph.create () in
    List.iter (fun i -> ignore (Digraph.intern_label w (Printf.sprintf "f%d" i))) (List.init 62 Fun.id);
    Digraph.iter_nodes (fun v -> ignore (Digraph.add_node w (Digraph.node_name g v))) g;
    List.iteri
      (fun i (e : Digraph.edge) ->
        Digraph.add_edge w ~src:e.src ~label:(Digraph.label_name g e.lbl) ~dst:e.dst;
        Digraph.add_edge w ~src:e.dst ~label:(Printf.sprintf "f%d" (i mod 62)) ~dst:e.src)
      (Digraph.edges g);
    w
  in
  let arb_case =
    make
      Gen.(
        let* n = int_range 1 12 in
        let* m = int_range 0 30 in
        let* seed = int_range 0 10_000 in
        let* wide = map (fun k -> k = 0) (int_bound 3) in
        let g = Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed in
        let g = if wide then widen g else g in
        (* the conjunctive seed set *)
        let* targets = array_repeat n bool in
        (* an insertion batch: edges by name, possibly to a node and
           under a label the graph does not know *)
        let node = map (fun i -> if i = n then "fresh" else Printf.sprintf "v%d" i) (int_bound n) in
        let* batch = list_size (int_range 1 6) (triple node (oneofl [ "a"; "b"; "c"; "d" ]) node) in
        return (g, targets, batch))
  in
  [
    Test.make ~name:"product eval = brute-force on star-free queries" ~count:300
      (pair arb_graph arb_starfree) (fun (g, r) ->
        let query = Rpq.of_regex r in
        let sel = Eval.select g query in
        let max_len = Gps_regex.Regex.size r in
        Digraph.fold_nodes
          (fun acc v ->
            let brute =
              Gps_regex.Deriv.matches r []
              || List.exists
                   (fun w -> Rpq.matches_word query (Walks.word_names g w))
                   (Walks.words g v ~max_len)
            in
            acc && brute = sel.(v))
          true g);
    Test.make ~name:"witness exists iff selected, and is accepted" ~count:300
      (pair arb_graph arb_starfree) (fun (g, r) ->
        let query = Rpq.of_regex r in
        let sel = Eval.select g query in
        Digraph.fold_nodes
          (fun acc v ->
            acc
            &&
            match Witness.find g query v with
            | Some w ->
                sel.(v)
                && Rpq.matches_word query w.Witness.word
                && List.hd w.Witness.walk = v
                && List.length w.Witness.walk = List.length w.Witness.word + 1
            | None -> not sel.(v))
          true g);
    Test.make ~name:"pathlang accepts exactly enumerated words" ~count:200 arb_graph (fun g ->
        let open Gps_automata in
        let v = 0 in
        let a = Pathlang.of_node g v in
        List.for_all
          (fun w -> Nfa.accepts a (Walks.word_names g w))
          (Walks.words g v ~max_len:3));
    Test.make ~name:"covers agrees with pathlang acceptance" ~count:200 arb_graph (fun g ->
        let open Gps_automata in
        let nodes = [ 0; 1 ] in
        let a = Pathlang.of_nodes g nodes in
        let words = Nfa.enumerate (Pathlang.of_node g 0) ~max_len:3 in
        List.for_all (fun w -> Pathlang.covers g nodes w = Nfa.accepts a w) words);
    Test.make ~name:"selection respects language inclusion" ~count:200 arb_graph (fun g ->
        (* L(a.c) subset of L(a.(b+c)) implies selection subset *)
        let q1 = Rpq.of_string_exn "a.c" and q2 = Rpq.of_string_exn "a.(b+c)" in
        let s1 = Eval.select g q1 and s2 = Eval.select g q2 in
        Array.for_all Fun.id (Array.mapi (fun i b -> (not b) || s2.(i)) s1));
    (* -- every evaluation path against one independent reference -------- *)
    Test.make ~name:"every evaluation path = derivative-search reference" ~count:250
      (pair arb_case arb_starred) (fun ((g, targets, batch), r) ->
        let query = Rpq.of_regex r in
        let n = Digraph.n_nodes g in
        let lengths = reference_lengths g r in
        let expected = Array.map Option.is_some lengths in
        let selection = function Ok (sel, _) -> Some sel | Error _ -> None in
        let names node_name sel =
          List.sort compare
            (List.filter_map
               (fun v -> if sel.(v) then Some (node_name v) else None)
               (List.init (Array.length sel) Fun.id))
        in
        (* the batch in two stages, applied to a heap copy: the reference
           after each. On the packed graph the first stage's run records
           the automaton's live entry and the second resumes it; the
           first stage's view, evaluated again after the entry advanced,
           must still get its own answer. *)
        let half = max 1 (List.length batch / 2) in
        let stages = [ List.filteri (fun i _ -> i < half) batch; List.filteri (fun i _ -> i >= half) batch ] in
        let g' = Digraph.copy g in
        let expected_after =
          List.map
            (fun stage ->
              List.iter (fun (src, lbl, dst) -> Digraph.link g' src lbl dst) stage;
              names (Digraph.node_name g') (Array.map Option.is_some (reference_lengths g' r)))
            stages
        in
        let packed_ok =
          with_packed g (fun packed ->
              let base = selection (Eval.run (Mapped (Disk_csr.snapshot packed)) query) in
              let eval_view view =
                match Eval.run (Mapped view) query with
                | Ok (sel, report) -> Some (names (Disk_csr.node_name view) sel, report.Eval.resumed)
                | Error _ -> None
              in
              let runs =
                List.map
                  (fun stage ->
                    ignore (Disk_csr.add_edges packed stage);
                    let view = Disk_csr.snapshot packed in
                    (view, eval_view view))
                  stages
              in
              let first_view = fst (List.hd runs) in
              base = Some expected
              && List.for_all2
                   (fun (_, run) want -> Option.map fst run = Some want)
                   runs expected_after
              (* once a stage has recorded an entry, the next one resumes it *)
              && ((Disk_csr.overlay_is_empty first_view || Gps_automata.Nfa.n_states (Rpq.nfa query) = 0)
                 || Option.map snd (snd (List.nth runs 1)) = Some true)
              && Option.map fst (eval_view first_view) = Some (List.hd expected_after))
        in
        let dfa_ok =
          let module Dfa = Gps_automata.Dfa in
          Eval.select g (Rpq.of_nfa (Dfa.to_nfa (Dfa.minimize (Dfa.determinize (Rpq.nfa query)))))
          = expected
        in
        let conjunctive_ok =
          Conjunctive.select_into g query ~targets
          = Array.map Option.is_some (reference_lengths ~target:(fun v -> targets.(v)) g r)
          && Conjunctive.select_into g query ~targets:(Array.make n true) = expected
        in
        (* incremental: one isolated new node, then the batch one edge at
           a time, agreeing with a fresh evaluation after every step *)
        let incremental_ok =
          let gi = Digraph.copy g in
          let inc = Incremental.create gi query in
          ignore (Digraph.add_node gi "isolated");
          let id name = Option.get (Digraph.node_of_name gi name) in
          List.for_all
            (fun (src, label, dst) ->
              Digraph.link gi src label dst;
              Incremental.add_edge inc ~src:(id src) ~label ~dst:(id dst);
              Incremental.agrees_with_scratch inc)
            batch
          && Incremental.select inc = Array.map Option.is_some (reference_lengths gi r)
        in
        let witnesses_ok =
          Digraph.fold_nodes
            (fun acc v ->
              let binary =
                List.filter_map
                  (fun dst -> Option.map (fun w -> (dst, w)) (Binary.witness g query ~src:v ~dst))
                  (Digraph.nodes g)
              in
              acc
              && (match Witness.find g query v with
                 | Some w -> witness_ok g query v w && Some (List.length w.word) = lengths.(v)
                 | None -> lengths.(v) = None)
              && (binary <> []) = expected.(v)
              && List.map fst binary = Binary.targets g query v
              && List.for_all
                   (fun (dst, (w : Witness.t)) ->
                     witness_ok g query v w && List.nth w.walk (List.length w.word) = dst)
                   binary)
            true g
        in
        Eval.select g query = expected
        && fst (report g query) = expected
        && Eval.witness_lengths g query = lengths
        && packed_ok && dfa_ok && conjunctive_ok && incremental_ok && witnesses_ok);
    (* -- explain reports ------------------------------------------------ *)
    Test.make ~name:"select_report agrees with select and survives its JSON codec" ~count:150
      (pair arb_graph arb_starred) (fun (g, r) ->
        let query = Rpq.of_regex r in
        let sel, report = report g query in
        let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sel in
        sel = Eval.select g query
        && report.Eval.selected = count
        && report.Eval.graph_nodes = Digraph.n_nodes g
        && report.Eval.product_states
           = report.Eval.graph_nodes * report.Eval.automaton_states
        && List.for_all (fun frontier -> frontier > 0) report.Eval.report_levels
        && (match report.Eval.stop with
           | Eval.Empty_automaton -> report.Eval.report_levels = []
           | Eval.Saturated | Eval.Frontier_exhausted | Eval.Timed_out | Eval.Cancelled ->
               true)
        && Eval.report_of_json (Eval.report_to_json report) = Ok report);
  ]

(* -------------------------------------------------------------------- *)
(* explain reports *)

let test_report_figure1 () =
  let g = Datasets.figure1 () in
  let sel, r = report g (q "(tram+bus)*.cinema") in
  check_int "selected count" (List.length Datasets.figure1_expected)
    r.Eval.selected;
  check "selection unchanged" true (sel = Eval.select g (q "(tram+bus)*.cinema"));
  check_int "graph nodes" (Digraph.n_nodes g) r.Eval.graph_nodes;
  check "automaton non-trivial" true (r.Eval.automaton_states > 0);
  check_int "product size" (r.Eval.graph_nodes * r.Eval.automaton_states) r.Eval.product_states;
  check "visits cover at least the seeds" true
    (r.Eval.frontier_visits > 0 && r.Eval.report_levels <> []);
  check "level 1 frontier equals the accepting seeds" true (List.hd r.Eval.report_levels > 0);
  check "terminal stop reason" true (r.Eval.stop = Eval.Frontier_exhausted);
  (* the pretty-printer mentions the headline numbers *)
  let text = Format.asprintf "%a" Eval.pp_report r in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  check "pp mentions stop reason" true (contains "frontier-exhausted");
  check "pp mentions product states" true (contains "product states")

let test_report_stop_reasons () =
  let g = Datasets.figure1 () in
  (* a 0-state automaton (the empty language) short-circuits the kernel *)
  let nothing =
    Rpq.of_nfa (Gps_automata.Nfa.make ~n_states:0 ~starts:[] ~finals:[] ~trans:[])
  in
  let sel, r = report g nothing in
  check "empty automaton selects nothing" true (Array.for_all not sel);
  check "empty automaton stop reason" true (r.Eval.stop = Eval.Empty_automaton);
  check "no levels ran" true (r.Eval.report_levels = [] && r.Eval.frontier_visits = 0);
  check_int "product size still reported" 0 r.Eval.product_states;
  (* a query selecting everything over a 1-state automaton saturates *)
  let g1 = Digraph.create () in
  let a = Digraph.add_node g1 "a" and b = Digraph.add_node g1 "b" in
  Digraph.add_edge g1 ~src:a ~label:"x" ~dst:b;
  Digraph.add_edge g1 ~src:b ~label:"x" ~dst:a;
  let _, r = report g1 (q "x*") in
  check "x* on an x-cycle saturates its product" true (r.Eval.stop = Eval.Saturated);
  check_int "everything selected" 2 r.Eval.selected;
  (* stop reasons round-trip as strings *)
  List.iter
    (fun s ->
      check "stop reason string codec" true
        (Eval.stop_reason_of_string (Eval.stop_reason_to_string s) = Ok s))
    [
      Eval.Empty_automaton; Eval.Saturated; Eval.Frontier_exhausted; Eval.Timed_out;
      Eval.Cancelled;
    ];
  check "unknown stop reason rejected" true
    (Result.is_error (Eval.stop_reason_of_string "gave-up"))

let test_report_json_shape () =
  let g = Datasets.figure1 () in
  let _, r = report g (q "bus") in
  let j = Eval.report_to_json r in
  (match Json.member "stop" j with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "stop must encode as a string");
  (match Json.member "levels" j with
  | Some (Json.Array (_ :: _)) -> ()
  | _ -> Alcotest.fail "levels must encode as a non-empty array");
  check "codec round-trip" true (Eval.report_of_json j = Ok r);
  check "garbage rejected" true
    (Result.is_error (Eval.report_of_json (Json.Object [ ("stop", Json.Number 3.) ])))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "query.figure1",
      [
        t "paper selection" test_figure1_selection;
        t "bus query (Section 3)" test_figure1_bus_query;
        t "consistency" test_figure1_consistency;
        t "restaurant query" test_figure1_restaurant;
      ] );
    ( "query.eval",
      [
        t "epsilon selects everything" test_epsilon_selects_everything;
        t "empty selects nothing" test_empty_selects_nothing;
        t "cycle star" test_cycle_star;
        t "monotone under union" test_selection_monotone_under_union;
        t "corrupt offsets raise, then the next run answers" test_corrupt_offsets_then_good_run;
        t "concurrent runs = sequential runs" test_concurrent_runs;
      ] );
    ( "query.witness",
      [
        t "figure1 witnesses" test_witness_figure1;
        t "epsilon witness" test_witness_epsilon;
        t "all selected" test_witness_all_selected;
        t "pretty-print" test_witness_pp;
      ] );
    ( "query.pathlang",
      [
        t "accepts paths" test_pathlang_accepts_paths;
        t "union" test_pathlang_union;
        t "covers" test_pathlang_covers;
        t "disjoint" test_pathlang_disjoint;
      ] );
    ( "query.metrics",
      [
        t "perfect" test_metrics_perfect;
        t "partial" test_metrics_partial;
        t "empty cases" test_metrics_empty_cases;
      ] );
    ("query.rpq", [ t "parse error" test_rpq_parse_error; t "of_nfa" test_rpq_of_nfa_roundtrip ]);
    ( "query.report",
      [
        t "figure1 report" test_report_figure1;
        t "stop reasons" test_report_stop_reasons;
        t "json shape" test_report_json_shape;
      ] );
    ("query.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

(* Unit and property tests for the gps_graph substrate. *)

open Gps_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------------- *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    check_int "push returns index" i (Vec.push v (i * 2))
  done;
  check_int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check_int "get" (i * 2) (Vec.get v i)
  done

let test_vec_set () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Vec.set v 0 42;
  check_int "set" 42 (Vec.get v 0)

let test_vec_bounds () =
  let v = Vec.create () in
  Alcotest.check_raises "get on empty" (Invalid_argument "Vec: index 0 out of bounds (length 0)")
    (fun () -> ignore (Vec.get v 0))

let test_vec_fold_order () =
  let v = Vec.create () in
  List.iter (fun x -> ignore (Vec.push v x)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
  check_int "fold" 6 (Vec.fold ( + ) 0 v)

(* -------------------------------------------------------------------- *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_int "length" 100 (Bitset.length b);
  check_int "empty" 0 (Bitset.cardinal b);
  check "nothing member" false (Bitset.mem b 0);
  Bitset.set b 42;
  check "42 in" true (Bitset.mem b 42);
  check "41 out" false (Bitset.mem b 41);
  check_int "one bit" 1 (Bitset.cardinal b)

let test_bitset_word_boundaries () =
  (* indices straddling byte (8) and word (32) packing edges *)
  let n = 100 in
  let b = Bitset.create n in
  let edges = [ 0; 7; 8; 15; 16; 31; 32; 33; 63; 64; n - 1 ] in
  List.iter (fun i -> check ("tas fresh " ^ string_of_int i) true (Bitset.test_and_set b i)) edges;
  List.iter
    (fun i -> check ("tas again " ^ string_of_int i) false (Bitset.test_and_set b i))
    edges;
  check_int "cardinal = distinct edges" (List.length edges) (Bitset.cardinal b);
  for i = 0 to n - 1 do
    check ("mem " ^ string_of_int i) (List.mem i edges) (Bitset.mem b i)
  done;
  (* below 60: the bytes of bits 0-63, so 63 goes and 64 stays *)
  Bitset.clear ~below:60 b;
  check "63 cleared" false (Bitset.mem b 63);
  check "64 kept" true (Bitset.mem b 64);
  Bitset.clear b;
  check_int "clear empties" 0 (Bitset.cardinal b);
  check "cleared bit" false (Bitset.mem b 32)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  check "mem -1" true (raises (fun () -> ignore (Bitset.mem b (-1))));
  check "set 10" true (raises (fun () -> Bitset.set b 10));
  check "tas 11" true (raises (fun () -> ignore (Bitset.test_and_set b 11)));
  check "negative create" true (raises (fun () -> ignore (Bitset.create (-1))));
  check "zero-length ok" true (Bitset.cardinal (Bitset.create 0) = 0)

(* -------------------------------------------------------------------- *)
(* Symtab *)

let test_symtab_roundtrip () =
  let t = Symtab.create () in
  let a = Symtab.intern t "alpha" in
  let b = Symtab.intern t "beta" in
  check_int "dense ids" 0 a;
  check_int "dense ids" 1 b;
  check_int "idempotent" a (Symtab.intern t "alpha");
  Alcotest.(check string) "name" "beta" (Symtab.name t b);
  check "find hit" true (Symtab.find t "alpha" = Some 0);
  check "find miss" true (Symtab.find t "gamma" = None);
  check_int "size" 2 (Symtab.size t)

(* -------------------------------------------------------------------- *)
(* Digraph *)

let diamond () =
  (* a -x-> b, a -y-> c, b -z-> d, c -z-> d *)
  Codec.of_edges [ ("a", "x", "b"); ("a", "y", "c"); ("b", "z", "d"); ("c", "z", "d") ]

let test_digraph_basic () =
  let g = diamond () in
  check_int "nodes" 4 (Digraph.n_nodes g);
  check_int "edges" 4 (Digraph.n_edges g);
  check_int "labels" 3 (Digraph.n_labels g);
  let a = Option.get (Digraph.node_of_name g "a") in
  check_int "out degree" 2 (Digraph.out_degree g a);
  check_int "in degree" 0 (Digraph.in_degree g a);
  let d = Option.get (Digraph.node_of_name g "d") in
  check_int "in degree d" 2 (Digraph.in_degree g d)

let test_digraph_dedup () =
  let g = Digraph.create () in
  Digraph.link g "a" "x" "b";
  Digraph.link g "a" "x" "b";
  check_int "duplicate edge ignored" 1 (Digraph.n_edges g);
  Digraph.link g "a" "y" "b";
  check_int "parallel edge with new label kept" 2 (Digraph.n_edges g)

let test_digraph_succ_by_label () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let x = Option.get (Digraph.label_of_name g "x") in
  let b = Option.get (Digraph.node_of_name g "b") in
  Alcotest.(check (list int)) "succ" [ b ] (Digraph.succ_by_label g a x)

let test_digraph_copy_isolated () =
  let g = diamond () in
  let g' = Digraph.copy g in
  Digraph.link g' "a" "w" "d";
  check_int "copy edge count" 5 (Digraph.n_edges g');
  check_int "original untouched" 4 (Digraph.n_edges g)

let test_digraph_bad_node () =
  let g = diamond () in
  Alcotest.check_raises "edge to unknown node"
    (Invalid_argument "Digraph: node 99 not in graph") (fun () ->
      Digraph.add_edge g ~src:99 ~label:"x" ~dst:0)

(* -------------------------------------------------------------------- *)
(* Traverse *)

let test_distances () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let d = Option.get (Digraph.node_of_name g "d") in
  let dist = Traverse.distances g a in
  check_int "dist a" 0 dist.(a);
  check_int "dist d" 2 dist.(d);
  let dist_in = Traverse.distances g ~direction:In a in
  check "d unreachable backwards" true (dist_in.(d) = max_int)

let test_reachable_within () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  check_int "radius 1" 3 (List.length (Traverse.reachable_within g a ~radius:1));
  check_int "radius 2" 4 (List.length (Traverse.reachable_within g a ~radius:2));
  check_int "radius 0" 1 (List.length (Traverse.reachable_within g a ~radius:0))

let test_spell_word () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let word names = Option.get (Walks.word_of_names g names) in
  check "x.z spellable" true (Traverse.has_word g a (word [ "x"; "z" ]));
  check "y.z spellable" true (Traverse.has_word g a (word [ "y"; "z" ]));
  check "x.y not spellable" false (Traverse.has_word g a (word [ "x"; "y" ]));
  check "empty word always" true (Traverse.has_word g a []);
  let d = Option.get (Digraph.node_of_name g "d") in
  Alcotest.(check (list int)) "endpoint" [ d ] (Traverse.spell_word g a (word [ "x"; "z" ]))

let test_word_witness_walk () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let word names = Option.get (Walks.word_of_names g names) in
  match Traverse.word_witness_walk g a (word [ "x"; "z" ]) with
  | Some walk ->
      Alcotest.(check (list string)) "walk nodes" [ "a"; "b"; "d" ]
        (List.map (Digraph.node_name g) walk)
  | None -> Alcotest.fail "expected a witness walk"

let test_eccentricity () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  check_int "ecc" 2 (Traverse.eccentricity g a)

(* -------------------------------------------------------------------- *)
(* Walks *)

let test_words_enumeration () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let ws = Walks.words g a ~max_len:2 in
  let names = List.map (fun w -> String.concat "." (Walks.word_names g w)) ws in
  Alcotest.(check (list string)) "words of a" [ "x"; "y"; "x.z"; "y.z" ] names

let test_words_cycle_bounded () =
  let g = Codec.of_edges [ ("a", "x", "a") ] in
  let a = Option.get (Digraph.node_of_name g "a") in
  check_int "bounded enumeration on cycle" 3 (List.length (Walks.words g a ~max_len:3))

let test_count_walks () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  (* walks of length 1: x, y; length 2: x.z, y.z -> total 4 *)
  check_int "count" 4 (Walks.count_walks g a ~max_len:2);
  check_int "count 1" 2 (Walks.count_walks g a ~max_len:1)

let test_exists_word () =
  let g = diamond () in
  let a = Option.get (Digraph.node_of_name g "a") in
  let z = Option.get (Digraph.label_of_name g "z") in
  (match Walks.exists_word g a ~max_len:3 (fun w -> List.mem z w) with
  | Some w -> check_int "shortest containing z has length 2" 2 (List.length w)
  | None -> Alcotest.fail "expected a word containing z");
  check "no such word" true (Walks.exists_word g a ~max_len:9 (fun w -> List.length w > 2) = None)

(* -------------------------------------------------------------------- *)
(* Neighborhood *)

let test_neighborhood_radius () =
  let g = Datasets.figure1 () in
  let n2 = Option.get (Digraph.node_of_name g "N2") in
  let frag2 = Neighborhood.compute g n2 ~radius:2 in
  let names frag = List.map (fun (v, _) -> Digraph.node_name g v) frag.Neighborhood.nodes in
  (* at radius 2 no cinema node is visible from N2 (paper, Fig 3a) *)
  check "no cinema at radius 2" false
    (List.exists (fun n -> n = "C1" || n = "C2") (names frag2));
  let frag3 = Neighborhood.zoom_out g frag2 in
  check "cinema visible at radius 3" true (List.exists (fun n -> n = "C1") (names frag3));
  let added_nodes, added_edges = Neighborhood.diff ~before:frag2 ~after:frag3 in
  check "zoom adds nodes" true (added_nodes <> []);
  check "zoom adds edges" true (added_edges <> [])

let test_neighborhood_frontier () =
  let g = Datasets.figure1 () in
  let n2 = Option.get (Digraph.node_of_name g "N2") in
  let frag = Neighborhood.compute g n2 ~radius:1 in
  (* N1 has out-edges to N4 outside the radius-1 fragment *)
  let n1 = Option.get (Digraph.node_of_name g "N1") in
  check "N1 on frontier" true (List.mem n1 frag.Neighborhood.frontier);
  check "not complete" false (Neighborhood.is_complete g frag)

let test_neighborhood_complete () =
  let g = Datasets.figure1 () in
  let n5 = Option.get (Digraph.node_of_name g "N5") in
  let frag = Neighborhood.compute g n5 ~radius:3 in
  check "complete at radius 3" true (Neighborhood.is_complete g frag)

(* -------------------------------------------------------------------- *)
(* Scc *)

let test_scc_dag () =
  let g = diamond () in
  let r = Scc.compute g in
  check_int "4 sccs" 4 r.Scc.count;
  check "trivial" true (Scc.is_trivial r)

let test_scc_cycle () =
  let g = Codec.of_edges [ ("a", "x", "b"); ("b", "x", "c"); ("c", "x", "a"); ("c", "y", "d") ] in
  let r = Scc.compute g in
  check_int "2 sccs" 2 r.Scc.count;
  check_int "largest" 3 (Scc.largest r);
  let comps = Scc.components g in
  check_int "components array" 2 (Array.length comps)

(* -------------------------------------------------------------------- *)
(* Codec *)

let test_codec_roundtrip () =
  let g = Datasets.figure1 () in
  let g' = Codec.of_string (Codec.to_string g) in
  check_int "nodes preserved" (Digraph.n_nodes g) (Digraph.n_nodes g');
  check_int "edges preserved" (Digraph.n_edges g) (Digraph.n_edges g');
  Digraph.iter_edges
    (fun e ->
      let src = Option.get (Digraph.node_of_name g' (Digraph.node_name g e.Digraph.src)) in
      let dst = Option.get (Digraph.node_of_name g' (Digraph.node_name g e.Digraph.dst)) in
      let lbl = Option.get (Digraph.label_of_name g' (Digraph.label_name g e.Digraph.lbl)) in
      check "edge preserved" true (Digraph.mem_edge g' ~src ~lbl ~dst))
    g

let test_codec_isolated_node () =
  let g = Codec.of_string "node lonely\na x b\n" in
  check_int "3 nodes" 3 (Digraph.n_nodes g);
  check "lonely present" true (Digraph.node_of_name g "lonely" <> None);
  let g' = Codec.of_string (Codec.to_string g) in
  check "lonely survives roundtrip" true (Digraph.node_of_name g' "lonely" <> None)

let test_codec_comments_blank () =
  let g = Codec.of_string "# a comment\n\na x b # trailing\n" in
  check_int "1 edge" 1 (Digraph.n_edges g)

let test_codec_error () =
  (match Codec.of_string "a b" with
  | exception Codec.Parse_error (1, _) -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Parse_error");
  match Codec.of_string "ok x y\na b c d\n" with
  | exception Codec.Parse_error (2, _) -> ()
  | _ -> Alcotest.fail "expected Parse_error on line 2"

(* -------------------------------------------------------------------- *)
(* Generators *)

let test_uniform_generator () =
  let g = Generators.uniform ~nodes:50 ~edges:120 ~labels:[ "a"; "b" ] ~seed:7 in
  check_int "node count" 50 (Digraph.n_nodes g);
  check_int "edge count" 120 (Digraph.n_edges g);
  check "label subset" true
    (List.for_all (fun l -> List.mem l [ "a"; "b" ]) (Digraph.labels g))

let test_uniform_deterministic () =
  let g1 = Generators.uniform ~nodes:30 ~edges:60 ~labels:[ "a"; "b"; "c" ] ~seed:42 in
  let g2 = Generators.uniform ~nodes:30 ~edges:60 ~labels:[ "a"; "b"; "c" ] ~seed:42 in
  Alcotest.(check string) "same seed, same graph" (Codec.to_string g1) (Codec.to_string g2);
  let g3 = Generators.uniform ~nodes:30 ~edges:60 ~labels:[ "a"; "b"; "c" ] ~seed:43 in
  check "different seed, different graph" false (Codec.to_string g1 = Codec.to_string g3)

let test_preferential_skew () =
  let g = Generators.preferential ~nodes:300 ~attach:2 ~labels:[ "l" ] ~seed:5 in
  let s = Stats.compute g in
  (* preferential attachment must produce hubs far above the mean degree *)
  check "hubs exist" true (float_of_int s.Stats.max_in_degree > 4.0 *. s.Stats.avg_out_degree)

let test_city_generator () =
  let g = Generators.city (Generators.default_city ~districts:20) ~seed:11 in
  let labels = Digraph.labels g in
  List.iter
    (fun l -> check (l ^ " present") true (List.mem l labels))
    [ "tram"; "bus"; "metro"; "cinema"; "restaurant"; "museum"; "park"; "in" ];
  check "districts exist" true (Digraph.node_of_name g "D0" <> None);
  check "cinema exists" true (Digraph.node_of_name g "cinema0" <> None)

let test_bio_generator () =
  let g = Generators.bio ~nodes:100 ~seed:3 in
  let labels = Digraph.labels g in
  List.iter
    (fun l -> check (l ^ " present") true (List.mem l labels))
    [ "interacts"; "encodes"; "treats"; "binds"; "associated" ];
  check "interacts symmetric" true
    (Digraph.fold_edges
       (fun acc e ->
         acc
         &&
         if Digraph.label_name g e.Digraph.lbl = "interacts" then
           Digraph.mem_edge g ~src:e.Digraph.dst ~lbl:e.Digraph.lbl ~dst:e.Digraph.src
         else true)
       true g)

(* -------------------------------------------------------------------- *)
(* Datasets: the paper's Figure 1 *)

let test_figure1_shape () =
  let g = Datasets.figure1 () in
  check_int "10 nodes" 10 (Digraph.n_nodes g);
  List.iter
    (fun n -> check (n ^ " present") true (Digraph.node_of_name g n <> None))
    [ "N1"; "N2"; "N3"; "N4"; "N5"; "N6"; "C1"; "C2"; "R1"; "R2" ]

let test_figure1_n5_no_cinema () =
  let g = Datasets.figure1 () in
  let n5 = Option.get (Digraph.node_of_name g "N5") in
  let reach = Traverse.reachable g n5 in
  let c1 = Option.get (Digraph.node_of_name g "C1") in
  let c2 = Option.get (Digraph.node_of_name g "C2") in
  check "N5 cannot reach C1" false reach.(c1);
  check "N5 cannot reach C2" false reach.(c2)

let test_figure1_witness_paths () =
  (* the witness walks the paper lists for q *)
  let g = Datasets.figure1 () in
  let node n = Option.get (Digraph.node_of_name g n) in
  let word names = Option.get (Walks.word_of_names g names) in
  check "N1 tram.cinema" true (Traverse.has_word g (node "N1") (word [ "tram"; "cinema" ]));
  check "N2 bus.tram.cinema" true
    (Traverse.has_word g (node "N2") (word [ "bus"; "tram"; "cinema" ]));
  check "N2 bus.bus.cinema (Fig 3c candidate)" true
    (Traverse.has_word g (node "N2") (word [ "bus"; "bus"; "cinema" ]));
  check "N4 cinema" true (Traverse.has_word g (node "N4") (word [ "cinema" ]));
  check "N6 cinema" true (Traverse.has_word g (node "N6") (word [ "cinema" ]))

(* -------------------------------------------------------------------- *)
(* Stats / Dot *)

let test_stats () =
  let g = Datasets.figure1 () in
  let s = Stats.compute g in
  check_int "nodes" 10 s.Stats.n_nodes;
  check_int "edges" 10 s.Stats.n_edges;
  check_int "labels" 4 s.Stats.n_labels;
  check "histogram sums to edges" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Stats.label_histogram = s.Stats.n_edges)

(* Rank: the deterministic label/degree orderings the workload
   instantiation layer builds on. *)

let test_rank_labels () =
  let g = Digraph.create () in
  (* b carries 3 edges, a carries 3, c carries 1: ties break by name *)
  Digraph.link g "n1" "b" "n2";
  Digraph.link g "n2" "b" "n3";
  Digraph.link g "n3" "b" "n4";
  Digraph.link g "n1" "a" "n3";
  Digraph.link g "n2" "a" "n4";
  Digraph.link g "n3" "a" "n1";
  Digraph.link g "n4" "c" "n1";
  Alcotest.(check (list (pair string int)))
    "count desc, name asc on ties"
    [ ("a", 3); ("b", 3); ("c", 1) ]
    (Rank.labels_by_frequency g);
  Alcotest.(check (list string)) "top_labels truncates" [ "a"; "b" ] (Rank.top_labels 2 g);
  Alcotest.(check (list string))
    "top_labels beyond the alphabet returns all" [ "a"; "b"; "c" ] (Rank.top_labels 10 g)

let test_rank_out_degree () =
  let g = Digraph.create () in
  (* hub: 3 out; x and y: 1 out each (tie, name order); sink: 0 *)
  Digraph.link g "hub" "e" "x";
  Digraph.link g "hub" "e" "y";
  Digraph.link g "hub" "f" "sink";
  Digraph.link g "y" "e" "sink";
  Digraph.link g "x" "e" "sink";
  let names rows = List.map (fun (v, _) -> Digraph.node_name g v) rows in
  check "hub ranks first" true (names (Rank.nodes_by_out_degree g) = [ "hub"; "x"; "y"; "sink" ]);
  Alcotest.(check (list string))
    "limit keeps the true top ranks" [ "hub"; "x" ]
    (Rank.top_nodes 2 g);
  check "degrees attached" true
    (List.map snd (Rank.nodes_by_out_degree g) = [ 3; 1; 1; 0 ])

let test_rank_matches_stats () =
  let g = Generators.city (Generators.default_city ~districts:20) ~seed:3 in
  let s = Stats.compute g in
  check "stats histogram is the rank order" true
    (s.Stats.label_histogram = Rank.labels_by_frequency g)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot_output () =
  let g = Datasets.figure1 () in
  let dot = Dot.of_graph g in
  check "digraph header" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  check "contains an edge" true (contains ~needle:"->" dot);
  let n2 = Option.get (Digraph.node_of_name g "N2") in
  let frag = Neighborhood.compute g n2 ~radius:1 in
  let fdot = Dot.of_fragment g frag in
  check "fragment has frontier dots" true (contains ~needle:"..." fdot)

(* -------------------------------------------------------------------- *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    check "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:3 in
  let l = List.init 20 Fun.id in
  let s = Prng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

(* -------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let small_graph_gen =
    Gen.(
      let* n = int_range 2 12 in
      let* m = int_range 1 30 in
      let* seed = int_range 0 10_000 in
      return (Generators.uniform ~nodes:n ~edges:m ~labels:[ "a"; "b"; "c" ] ~seed))
  in
  let arb_graph = make small_graph_gen in
  [
    Test.make ~name:"spell_word agrees with word_witness_walk" ~count:200 arb_graph (fun g ->
        let rng = Prng.create ~seed:(Digraph.n_edges g) in
        let v = Prng.int rng (Digraph.n_nodes g) in
        let ws = Walks.words g v ~max_len:3 in
        List.for_all
          (fun w ->
            Traverse.has_word g v w
            && match Traverse.word_witness_walk g v w with
               | Some walk -> List.length walk = List.length w + 1 && List.hd walk = v
               | None -> false)
          ws);
    Test.make ~name:"neighborhood nodes are within radius" ~count:200 arb_graph (fun g ->
        let frag = Neighborhood.compute g 0 ~radius:2 in
        List.for_all (fun (_, d) -> d <= 2) frag.Neighborhood.nodes
        && List.for_all
             (fun e ->
               List.mem_assoc e.Digraph.src frag.Neighborhood.nodes
               && List.mem_assoc e.Digraph.dst frag.Neighborhood.nodes)
             frag.Neighborhood.edges);
    Test.make ~name:"zoom_out is monotone" ~count:100 arb_graph (fun g ->
        let f1 = Neighborhood.compute g 0 ~radius:1 in
        let f2 = Neighborhood.zoom_out g f1 in
        List.for_all (fun (v, _) -> List.mem_assoc v f2.Neighborhood.nodes) f1.Neighborhood.nodes);
    Test.make ~name:"codec roundtrip preserves edge count" ~count:200 arb_graph (fun g ->
        let g' = Codec.of_string (Codec.to_string g) in
        Digraph.n_edges g = Digraph.n_edges g' && Digraph.n_nodes g = Digraph.n_nodes g');
    Test.make ~name:"scc component ids partition nodes" ~count:200 arb_graph (fun g ->
        let r = Scc.compute g in
        Array.for_all (fun c -> c >= 0 && c < r.Scc.count) r.Scc.component
        && Array.length r.Scc.component = Digraph.n_nodes g);
    Test.make ~name:"distances satisfy triangle step" ~count:200 arb_graph (fun g ->
        let dist = Traverse.distances g 0 in
        Digraph.fold_edges
          (fun acc e ->
            acc
            && (dist.(e.Digraph.src) = max_int || dist.(e.Digraph.dst) <= dist.(e.Digraph.src) + 1))
          true g);
  ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "graph.vec",
      [
        t "push/get" test_vec_push_get;
        t "set" test_vec_set;
        t "bounds" test_vec_bounds;
        t "fold order" test_vec_fold_order;
      ] );
    ( "graph.bitset",
      [
        t "basic" test_bitset_basic;
        t "word boundaries" test_bitset_word_boundaries;
        t "bounds checks" test_bitset_bounds;
      ] );
    ("graph.symtab", [ t "roundtrip" test_symtab_roundtrip ]);
    ( "graph.digraph",
      [
        t "basic" test_digraph_basic;
        t "dedup" test_digraph_dedup;
        t "succ_by_label" test_digraph_succ_by_label;
        t "copy isolation" test_digraph_copy_isolated;
        t "bad node" test_digraph_bad_node;
      ] );
    ( "graph.traverse",
      [
        t "distances" test_distances;
        t "reachable_within" test_reachable_within;
        t "spell_word" test_spell_word;
        t "word_witness_walk" test_word_witness_walk;
        t "eccentricity" test_eccentricity;
      ] );
    ( "graph.walks",
      [
        t "enumeration" test_words_enumeration;
        t "cycle bounded" test_words_cycle_bounded;
        t "count" test_count_walks;
        t "exists_word" test_exists_word;
      ] );
    ( "graph.neighborhood",
      [
        t "radius and zoom (Fig 3a/3b)" test_neighborhood_radius;
        t "frontier" test_neighborhood_frontier;
        t "complete" test_neighborhood_complete;
      ] );
    ("graph.scc", [ t "dag" test_scc_dag; t "cycle" test_scc_cycle ]);
    ( "graph.codec",
      [
        t "roundtrip" test_codec_roundtrip;
        t "isolated node" test_codec_isolated_node;
        t "comments" test_codec_comments_blank;
        t "errors" test_codec_error;
      ] );
    ( "graph.generators",
      [
        t "uniform" test_uniform_generator;
        t "deterministic" test_uniform_deterministic;
        t "preferential skew" test_preferential_skew;
        t "city" test_city_generator;
        t "bio" test_bio_generator;
      ] );
    ( "graph.figure1",
      [
        t "shape" test_figure1_shape;
        t "N5 reaches no cinema" test_figure1_n5_no_cinema;
        t "paper witness paths" test_figure1_witness_paths;
      ] );
    ("graph.stats", [ t "figure1 stats" test_stats; t "dot output" test_dot_output ]);
    ( "graph.rank",
      [
        t "labels by frequency" test_rank_labels;
        t "nodes by out-degree" test_rank_out_degree;
        t "stats histogram shares the ranking" test_rank_matches_stats;
      ] );
    ( "graph.prng",
      [
        t "determinism" test_prng_determinism;
        t "bounds" test_prng_bounds;
        t "shuffle" test_prng_shuffle_permutation;
      ] );
    ("graph.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

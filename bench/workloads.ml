(* Shared workloads for the benchmark harness: the datasets and the goal
   query suite of DESIGN.md (Q1-Q10). *)

module Digraph = Gps.Graph.Digraph
module Generators = Gps.Graph.Generators

type dataset = { name : string; graph : Digraph.t }

let city ~districts ~seed =
  {
    name = Printf.sprintf "city-%d" districts;
    graph = Generators.city (Generators.default_city ~districts) ~seed;
  }

let bio ~nodes ~seed =
  { name = Printf.sprintf "bio-%d" nodes; graph = Generators.bio ~nodes ~seed }

let uniform ~nodes ~seed =
  {
    name = Printf.sprintf "uniform-%d" nodes;
    graph =
      Generators.uniform ~nodes ~edges:(nodes * 2)
        ~labels:[ "a"; "b"; "c"; "d" ] ~seed;
  }

let figure1 () = { name = "figure1"; graph = Gps.Graph.Datasets.figure1 () }

(* Q1-Q7 make sense on city graphs, Q8-Q10 on bio graphs. The lists
   live in Gps.Workload.Mix (the fixed "paper" mix), so the micro
   benches and the load-storm harness replay one query source. *)
let city_queries = Gps.Workload.Mix.paper_city_queries
let bio_queries = Gps.Workload.Mix.paper_bio_queries

let q s = Gps.parse_query_exn s

(* The checkout's commit, "-dirty" when the tree has uncommitted
   changes; "unknown" outside a git checkout. *)
let commit () =
  match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

(* The host block a committed BENCH_*.json opens with (cores, OCaml
   version, commit), so it is only ever compared with one from the same
   host. *)
let host_json () =
  let module Json = Gps.Graph.Json in
  ( "host",
    Json.Object
      [
        ("cores", Json.Number (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ()));
      ] )

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let median l =
  match List.sort compare l with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let header fmt = Printf.printf fmt

let rule () = print_endline (String.make 78 '-')

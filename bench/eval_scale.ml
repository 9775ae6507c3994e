(* eval_scale: the evaluation kernel against its predecessor across
   graph sizes.

   On city graphs of growing size and Q3, the pre-flat-index list-based
   BFS (a faithful bench-local copy of the old kernel) is timed against
   the shared flat-index/bitset kernel — the cache-tightness win. Both
   must select the same nodes before a single timing is reported.
   Timings are best-of-3 wall clock. The document opens with its host
   block (cores, OCaml version, commit), so a committed BENCH_eval.json
   is only ever compared with one from the same host.

   GPS_EVAL_SCALE=tiny shrinks the size ladder for CI smoke runs. *)

module Json = Gps.Graph.Json
module Clock = Gps.Obs.Clock
module Digraph = Gps.Graph.Digraph
module Csr = Gps.Graph.Csr
module Nfa = Gps.Automata.Nfa
module Eval = Gps.Query.Eval

let num x = Json.Number x
let int_j n = num (float_of_int n)

(* The evaluation loop as it stood before the flat-index rewrite:
   by-label transition lists, a boolean array per product state and a
   tuple Queue. Kept here (not in the library) purely as the bench
   baseline. *)
let legacy_select g q =
  let nfa = Gps.Query.Rpq.nfa q in
  let n = Digraph.n_nodes g and m = Nfa.n_states nfa in
  let selected = Array.make n false in
  if m = 0 then selected
  else begin
    let by_label = Array.make (max (Digraph.n_labels g) 1) [] in
    List.iter
      (fun (qs, sym, qd) ->
        match Digraph.label_of_name g sym with
        | Some lbl -> by_label.(lbl) <- (qs, qd) :: by_label.(lbl)
        | None -> ())
      (Nfa.transitions nfa);
    let can_accept = Array.make (n * m) false in
    let queue = Queue.create () in
    let push v qs =
      let idx = (v * m) + qs in
      if not can_accept.(idx) then begin
        can_accept.(idx) <- true;
        Queue.add (v, qs) queue
      end
    in
    List.iter (fun qf -> for v = 0 to n - 1 do push v qf done) (Nfa.finals nfa);
    while not (Queue.is_empty queue) do
      let v', q' = Queue.pop queue in
      List.iter
        (fun (lbl, v) ->
          List.iter (fun (qs, qd) -> if qd = q' then push v qs) by_label.(lbl))
        (Digraph.in_edges g v')
    done;
    let starts = Nfa.starts nfa in
    for v = 0 to n - 1 do
      selected.(v) <- List.exists (fun q0 -> can_accept.((v * m) + q0)) starts
    done;
    selected
  end

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Clock.now_ns () in
    f ();
    let t = Clock.ns_to_s (Clock.elapsed_ns t0) in
    if t < !best then best := t
  done;
  !best

(* The checkout's commit, "-dirty" when the tree has uncommitted
   changes; "unknown" outside a git checkout. *)
let commit () =
  match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

let run () =
  let tiny =
    match Sys.getenv_opt "GPS_EVAL_SCALE" with Some "tiny" -> true | _ -> false
  in
  let sizes = if tiny then [ 20; 50 ] else [ 50; 200; 800; 3200 ] in
  let repeats = if tiny then 1 else 3 in
  let goal = Workloads.q "(tram+bus)*.cinema" in
  let rows =
    List.map
      (fun districts ->
        let w = Workloads.city ~districts ~seed:8 in
        let g = w.Workloads.graph in
        let source = Eval.Frozen (g, Csr.freeze g) in
        let kernel () = fst (Result.get_ok (Eval.run source goal)) in
        if kernel () <> legacy_select g goal then
          failwith (Printf.sprintf "eval_scale: kernel disagrees on %s" w.Workloads.name);
        let legacy_s = best_of repeats (fun () -> ignore (legacy_select g goal)) in
        let kernel_s = best_of repeats (fun () -> ignore (kernel ())) in
        Json.Object
          [
            ("graph", Json.String w.Workloads.name);
            ("nodes", int_j (Digraph.n_nodes g));
            ("edges", int_j (Digraph.n_edges g));
            ("product_states", int_j (Eval.product_states g goal));
            ("legacy_s", num legacy_s);
            ("kernel_s", num kernel_s);
            ("kernel_speedup", num (legacy_s /. kernel_s));
          ])
      sizes
  in
  let doc =
    Json.Object
      [
        ("experiment", Json.String "eval_scale");
        ( "host",
          Json.Object
            [
              ("cores", int_j (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("commit", Json.String (commit ()));
            ] );
        ("query", Json.String "(tram+bus)*.cinema");
        ("repeats_best_of", int_j repeats);
        ("sizes", Json.Array rows);
      ]
  in
  print_endline (Json.value_to_string ~pretty:true doc)

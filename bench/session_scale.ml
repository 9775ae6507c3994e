(* session_scale: the paper's select → label → learn loop against graph
   size — the interactivity claim.

   For city graphs (goals Q1–Q7) and bio graphs (Q8–Q10) of 200 to
   12 800 nodes, doubling, every goal that selects something is run as
   one dialog with the smart strategy and a perfect simulated user. Each
   session transition (start, label, validation, accept/refine) is timed
   and its allocation counted; the simulated user's own work is not.
   Per size: ms per step (median and max), questions, MB allocated per
   step. A family stops at the first size whose sessions do not finish
   within 60 s, and the document records where. It opens with the host
   block (cores, OCaml version, commit) like BENCH_eval.json.

   dune exec bench/main.exe -- --exp session_scale > BENCH_session.json *)

module Json = Gps.Graph.Json
module Clock = Gps.Obs.Clock
module Digraph = Gps.Graph.Digraph
module Session = Gps.Interactive.Session
module Oracle = Gps.Interactive.Oracle
module Eval = Gps.Query.Eval

let budget_s = 60.
let sizes = [ 200; 400; 800; 1600; 3200; 6400; 12800 ]
let num x = Json.Number x
let int_j n = num (float_of_int n)

type totals = {
  mutable steps : float list;  (* seconds per transition *)
  mutable alloc : float;  (* bytes allocated by transitions *)
  mutable questions : int;
  mutable sessions : int;
  mutable reached : int;
}

(* One dialog; [false] if the family's deadline passed before it ended. *)
let dialog tot g goal ~deadline =
  let user = Oracle.perfect ~goal in
  let timed f =
    let a0 = Gc.allocated_bytes () and t0 = Clock.now_ns () in
    let r = f () in
    tot.steps <- Clock.ns_to_s (Clock.elapsed_ns t0) :: tot.steps;
    tot.alloc <- tot.alloc +. (Gc.allocated_bytes () -. a0);
    r
  in
  let rec loop t =
    if Clock.now_ns () > deadline then false
    else
      match Session.request t with
      | Session.Finished o ->
          tot.sessions <- tot.sessions + 1;
          tot.questions <- tot.questions + Session.questions t;
          if Eval.select g o.Session.query = Eval.select g goal then tot.reached <- tot.reached + 1;
          true
      | Session.Ask_label view ->
          let a = user.Oracle.label g view in
          loop (timed (fun () -> Session.answer_label t a))
      | Session.Ask_path tree ->
          let w = user.Oracle.validate g tree in
          loop (timed (fun () -> Session.answer_path t w))
      | Session.Propose q ->
          let ok = user.Oracle.satisfied g q in
          loop (timed (fun () -> if ok then Session.accept t else Session.refine t))
  in
  loop (timed (fun () -> Session.start ~strategy:Gps.Interactive.Strategy.smart g))

let size_row (ds : Workloads.dataset) queries =
  let g = ds.Workloads.graph in
  let tot = { steps = []; alloc = 0.; questions = 0; sessions = 0; reached = 0 } in
  let t0 = Clock.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (budget_s *. 1e9)) in
  let finished =
    List.for_all
      (fun (_, qs) ->
        let goal = Workloads.q qs in
        Eval.count g goal = 0 || dialog tot g goal ~deadline)
      queries
  in
  let steps = List.length tot.steps in
  let per_step x = if steps = 0 then nan else x /. float_of_int steps in
  let row =
    Json.Object
      [
        ("graph", Json.String ds.Workloads.name);
        ("nodes", int_j (Digraph.n_nodes g));
        ("edges", int_j (Digraph.n_edges g));
        ("sessions", int_j tot.sessions);
        ("reached_goal", int_j tot.reached);
        ("questions", int_j tot.questions);
        ("steps", int_j steps);
        ("ms_per_step_p50", num (1e3 *. Workloads.median tot.steps));
        ("ms_per_step_max", num (1e3 *. List.fold_left max 0. tot.steps));
        ("mb_alloc_per_step", num (per_step tot.alloc /. 1e6));
        ("total_s", num (Clock.ns_to_s (Clock.elapsed_ns t0)));
      ]
  in
  (row, finished)

let family name make queries =
  let rec go acc = function
    | [] -> (List.rev acc, Json.Null)
    | nodes :: rest ->
        let row, finished = size_row (make nodes) queries in
        Printf.eprintf "session_scale: %s %d nodes done\n%!" name nodes;
        if finished then go (row :: acc) rest
        else
          ( List.rev acc,
            Json.Object
              [
                ("nodes", int_j nodes);
                ("reason", Json.String (Printf.sprintf "sessions did not finish within %.0f s" budget_s));
              ] )
  in
  let rows, stopped = go [] sizes in
  Json.Object
    [
      ("family", Json.String name);
      ("goals", Json.Array (List.map (fun (id, _) -> Json.String id) queries));
      ("sizes", Json.Array rows);
      ("stopped_at", stopped);
    ]

let run () =
  let doc =
    Json.Object
      [
        ("experiment", Json.String "session_scale");
        Workloads.host_json ();
        ("strategy", Json.String "smart");
        ("user", Json.String "perfect");
        ("budget_s_per_size", num budget_s);
        ( "families",
          Json.Array
            [
              family "city"
                (fun nodes -> Workloads.city ~districts:(nodes / 2) ~seed:8)
                Workloads.city_queries;
              family "bio" (fun nodes -> Workloads.bio ~nodes ~seed:8) Workloads.bio_queries;
            ] );
      ]
  in
  print_endline (Json.value_to_string ~pretty:true doc)

(* Workload inputs.

   Everything the server receives is made here: graph files, request
   lines and the reference answers the load generator checks against.
   Each workload's graphs and distinct queries are fixed, drawn from
   [input_seed]; the bench seed draws the order of the requests and the
   edges the writes add. Runs with different seeds then do the same
   work in a different order, so the spread over seeds measures the
   host and the server, not differences between graphs.
   The references are computed in-process with the library's own
   evaluator before any server is started, so they never count toward
   set-up time or latency. *)

module Digraph = Gps.Graph.Digraph
module Generators = Gps.Graph.Generators
module Prng = Gps.Graph.Prng
module Rpq = Gps.Query.Rpq
module Eval = Gps.Query.Eval
module Rewrite = Gps.Query.Rewrite
module P = Gps.Server.Protocol
module Json = Gps.Graph.Json

let names_of g sel =
  let acc = ref [] in
  for v = Array.length sel - 1 downto 0 do
    if sel.(v) then acc := Digraph.node_name g v :: !acc
  done;
  List.sort compare !acc

let reference g text = names_of g (Eval.select ~domains:1 g (Rpq.of_string_exn text))

(* The exact bytes of the ["nodes"] member a correct [Answer] carries —
   the generator compares raw response lines against it instead of
   decoding every answer. *)
let nodes_member names =
  "\"nodes\":" ^ Json.value_to_string (Json.Array (List.map (fun s -> Json.String s) names))

let query_line graph text =
  P.request_to_string (P.Query { graph; query = text; explain = false; deadline_ms = None })

(* [n] queries over [labels] with pairwise-distinct graph-specialized
   forms (the server's cache key), drawn round-robin from the 28
   PathForge patterns so every pattern is represented. *)
let draw_queries ?(keep = fun _ -> true) ~prng ~labels ~known ~n () =
  let pats = Array.of_list Gps.Workload.Pattern.all in
  let labels = Array.of_list labels in
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and count = ref 0 and tries = ref 0 in
  while !count < n && !tries < 200 * n do
    let p = pats.(!tries mod Array.length pats) in
    incr tries;
    let pick () = Prng.pick_arr prng labels in
    let a = pick () in
    let b = pick () in
    let c = pick () in
    let text = Gps.Regex.Regex.to_string (Gps.Workload.Pattern.instantiate p ~a ~b ~c) in
    let key = Rpq.to_string (Rewrite.specialize_known ~known (Rpq.of_string_exn text)) in
    if (not (Hashtbl.mem seen key)) && keep text then begin
      Hashtbl.add seen key ();
      out := text :: !out;
      incr count
    end
  done;
  if !count < n then failwith (Printf.sprintf "only %d distinct queries drawable" !count);
  Array.of_list (List.rev !out)

let known_of g l = Digraph.label_of_name g l <> None

let input_seed = 8

(* A splitmix-style hash: request [i] of an unbounded stream picks its
   query from [hash seed i] without materializing the stream. *)
let hash seed i =
  let z = ref (Int64.add (Int64.of_int (seed * 1_000_003)) (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  Int64.to_int (Int64.shift_right_logical !z 2)

(* ------------------------------------------------------------------ *)
(* query storms: q-hot and q-cold *)

type storm = {
  graph : Digraph.t;
  texts : string array;  (** distinct queries *)
  lines : string array;  (** their request lines *)
  expected : string array;  (** their {!nodes_member} *)
  pick : int -> int;  (** request [i] of the stream sends [texts.(pick i)] *)
}

let storm ~graph_name ~graph ~seed ~distinct ~cyclic =
  let texts =
    draw_queries ~prng:(Prng.create ~seed:(input_seed + 17)) ~labels:(Digraph.labels graph)
      ~known:(known_of graph) ~n:distinct ()
  in
  let expected = Array.map (fun t -> nodes_member (reference graph t)) texts in
  let pick =
    if cyclic then begin
      (* a fixed permutation replayed in order: every query's reuse
         distance is [distinct - 1], beyond an LRU cache that holds fewer *)
      let perm = Array.of_list (Prng.shuffle (Prng.create ~seed) (List.init distinct Fun.id)) in
      fun i -> perm.(i mod distinct)
    end
    else fun i -> hash seed i mod distinct
  in
  { graph; texts; lines = Array.map (query_line graph_name) texts; expected; pick }

let city ~districts = Generators.city (Generators.default_city ~districts) ~seed:input_seed

let q_hot ~seed = storm ~graph_name:"city" ~graph:(city ~districts:200) ~seed ~distinct:32 ~cyclic:false

let q_cold ~seed =
  storm ~graph_name:"city" ~graph:(city ~districts:1500) ~seed ~distinct:640 ~cyclic:true

(* ------------------------------------------------------------------ *)
(* rw-overlay: reads of a cache-resident set on a packed uniform graph,
   with add_edges batches touching one label *)

let write_label = "d"
let rw_nodes = 10_000
let write_every = 16  (* one batch per [write_every] operations *)
let batch_edges = 8

type rw = {
  base : Digraph.t;
  rtexts : string array;
  rlines : string array;
  base_expected : string list array;
  touches : bool array;  (** query mentions [write_label]: its answer may grow *)
  touching : int array;  (** indices of those queries *)
  batch : int -> (string * string * string) list;
      (** batch [j], generated on first use in increasing [j] order *)
}

type op = Read of int | Write of int

let rw_op rw ~seed i =
  let slot = i mod write_every in
  if slot = 0 then Write (i / write_every)
  else if slot = 1 then
    (* the first read after a batch re-reads a query the batch touched,
       so every batch finds an entry to invalidate *)
    Read rw.touching.(hash seed i mod Array.length rw.touching)
  else Read (hash seed i mod Array.length rw.rtexts)

let rw_overlay ~seed =
  let others = [ "a"; "b"; "c"; "e"; "f"; "g"; "h" ] in
  let labels = write_label :: others in
  let base = Generators.uniform ~nodes:rw_nodes ~edges:(rw_nodes * 5 / 2) ~labels ~seed:input_seed in
  let prng = Prng.create ~seed:(input_seed + 29) in
  let known = known_of base in
  (* reads select a bounded share of the graph: the workload is about
     cache and overlay behaviour, not shipping the whole node set *)
  let keep text =
    let q = Rpq.of_string_exn text in
    (not (Gps.Regex.Regex.nullable (Rpq.regex q)))
    &&
    let n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 (Eval.select ~domains:1 base q) in
    n > 0 && n <= rw_nodes / 10
  in
  let untouched = draw_queries ~keep ~prng ~labels:others ~known ~n:16 () in
  let touched =
    (* every pattern's symbol [a] is bound to the written label *)
    let pats = Array.of_list Gps.Workload.Pattern.all in
    let seen = Hashtbl.create 16 and out = ref [] and i = ref 0 in
    while List.length !out < 8 do
      let p = pats.(Prng.int prng (Array.length pats)) in
      incr i;
      let pick () = Prng.pick prng others in
      let b = pick () in
      let c = pick () in
      let re = Gps.Workload.Pattern.instantiate p ~a:write_label ~b ~c in
      let text = Gps.Regex.Regex.to_string re in
      let q = Rpq.of_string_exn text in
      let key = Rpq.to_string (Rewrite.specialize_known ~known q) in
      if List.mem write_label (Rewrite.base_alphabet q) && not (Hashtbl.mem seen key)
         && (not (Array.mem text untouched)) && keep text
      then begin
        Hashtbl.add seen key ();
        out := text :: !out
      end
    done;
    Array.of_list (List.rev !out)
  in
  let rtexts = Array.append untouched touched in
  let touches = Array.map (fun t -> List.mem write_label (Rewrite.base_alphabet (Rpq.of_string_exn t))) rtexts in
  let touching =
    Array.of_list (List.filter (fun i -> touches.(i)) (List.init (Array.length rtexts) Fun.id))
  in
  let used = Hashtbl.create 4096 in
  let batches = Hashtbl.create 256 in
  let wprng = Prng.create ~seed:(seed + 31) in
  let n = Digraph.n_nodes base in
  let d = Option.get (Digraph.label_of_name base write_label) in
  let rec fresh () =
    let s = Prng.int wprng n and t = Prng.int wprng n in
    if Hashtbl.mem used (s, t) || Digraph.mem_edge base ~src:s ~lbl:d ~dst:t then fresh ()
    else begin
      Hashtbl.add used (s, t) ();
      (Digraph.node_name base s, write_label, Digraph.node_name base t)
    end
  in
  let next = ref 0 in
  let batch j =
    while !next <= j do
      Hashtbl.replace batches !next (List.init batch_edges (fun _ -> fresh ()));
      incr next
    done;
    Hashtbl.find batches j
  in
  {
    base;
    rtexts;
    rlines = Array.map (query_line "uni") rtexts;
    base_expected = Array.map (reference base) rtexts;
    touches;
    touching;
    batch;
  }

let write_line edges = P.request_to_string (P.Add_edges { graph = "uni"; edges })

(* base + every applied batch, for the post-run probe *)
let rw_final rw applied =
  let g = Digraph.copy rw.base in
  List.iter (fun j -> List.iter (fun (s, l, t) -> Digraph.link g s l t) (rw.batch j)) applied;
  g

(* ------------------------------------------------------------------ *)
(* session: recorded perfect-oracle dialogs for the paper's goals *)

type script = {
  goal_name : string;
  sgraph : string;  (** catalog name *)
  answers : Gps.Interactive.Journal.answer list;
  questions : int;
  selects : string;  (** {!nodes_member}-style bytes of the final selection *)
}

(* Dialogs are recorded on the graphs as the server will hold them —
   after the edge-list round trip, which renumbers nodes; strategies
   break ties by node id. *)
let session_graphs () =
  let reloaded g = Gps.Graph.Codec.of_string (Gps.Graph.Codec.to_string g) in
  [ ("city", reloaded (city ~districts:100)); ("bio", reloaded (Generators.bio ~nodes:200 ~seed:input_seed)) ]

let strategy = "smart"

(* Each goal's dialog is recorded once against the in-process engine;
   the server replays the same engine on the same graph, strategy and
   seed, so the recorded answers are exactly what a perfect user would
   give it. *)
let scripts graphs =
  let module S = Gps.Interactive.Session in
  let goals =
    List.map (fun (n, q) -> (n, "city", q)) Gps.Workload.Mix.paper_city_queries
    @ List.map (fun (n, q) -> (n, "bio", q)) Gps.Workload.Mix.paper_bio_queries
  in
  List.map
    (fun (goal_name, sgraph, goal) ->
      let g = List.assoc sgraph graphs in
      let goal_q = Rpq.of_string_exn goal in
      let user, recorded = Gps.Interactive.Journal.recording (Gps.Interactive.Oracle.perfect ~goal:goal_q) in
      let strat = Result.get_ok (Gps.Interactive.Strategy.by_name ~seed:0 strategy) in
      let trace = Gps.Interactive.Simulate.run g ~strategy:strat ~user in
      let want = reference g goal in
      let got = names_of g (Eval.select ~domains:1 g trace.Gps.Interactive.Simulate.outcome.S.query) in
      if got <> want then failwith (Printf.sprintf "goal %s: the oracle dialog does not reach the goal" goal_name);
      {
        goal_name;
        sgraph;
        answers = recorded ();
        questions = trace.Gps.Interactive.Simulate.questions;
        selects = "\"selects\":" ^ Json.value_to_string (Json.Array (List.map (fun s -> Json.String s) want));
      })
    goals

let start_line s =
  P.request_to_string (P.Session_start { graph = s.sgraph; strategy; seed = 0; budget = None })

let answer_line id (a : Gps.Interactive.Journal.answer) =
  let req =
    match a with
    | Label (_, `Pos) -> P.Session_label { session = id; positive = true }
    | Label (_, `Neg) -> P.Session_label { session = id; positive = false }
    | Label (_, `Zoom) -> P.Session_zoom { session = id }
    | Validate (_, w) -> P.Session_validate { session = id; path = Some w }
    | Satisfied (_, b) -> P.Session_propose { session = id; accept = b }
  in
  P.request_to_string req

let stop_line id = P.request_to_string (P.Session_stop { session = id })

(* What the view answering the previous step must show before answer
   [a] is given: the node asked about, as the raw JSON member. *)
let view_node (a : Gps.Interactive.Journal.answer) =
  match a with
  | Label (Some n, _) | Validate (Some n, _) -> Some ("\"node\":" ^ Json.value_to_string (Json.String n))
  | Label (None, _) | Validate (None, _) | Satisfied _ -> None

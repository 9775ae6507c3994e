module Digraph = Gps_graph.Digraph
module Csr = Gps_graph.Csr
module Disk_csr = Gps_graph.Disk_csr
module Bitset = Gps_graph.Bitset
module Nfa = Gps_automata.Nfa
module Counter = Gps_obs.Counter
module Trace = Gps_obs.Trace
module Deadline = Gps_obs.Deadline

(* Work counters, published once per evaluation (the loops accumulate in
   locals — no per-iteration cost). *)
let c_runs = Counter.make "eval.runs"
let c_states = Counter.make "eval.product_states"
let c_visits = Counter.make "eval.frontier_visits"
let c_dedup = Counter.make "eval.early_exit_hits"
let c_cancel_checks = Counter.make "eval.cancel_checks"
let c_cancelled = Counter.make "eval.cancelled"

(* How many frontier visits between two deadline polls inside a level.
   Level boundaries always poll, so this only bounds the latency of
   cancellation inside one very wide level; 512 visits is a few
   microseconds of work. *)
let checkpoint_interval = 512

(* ------------------------------------------------------------------ *)
(* The evaluation plan: everything the kernel's inner loop touches, in
   flat int arrays.

   The automaton's transitions are re-indexed as a CSR-style {e reverse}
   index keyed by (label, destination state): [rev_src.(rev_off.(lbl * m
   + q') .. rev_off.(lbl * m + q' + 1) - 1)] are exactly the states [qs]
   with [qs -lbl-> q']. The backward product step — "which (v, qs)
   precede (v', q')?" — then walks the graph's in-edges once and indexes
   straight into the matching transition sources, instead of filtering a
   per-label transition list on [qd = q'] for every edge. An inverse
   symbol [l~] is keyed past every forward key, at [inv + l * m + q'],
   and is matched against out-edges; the index only grows that second
   half when the query has an inverse transition. Transitions on labels
   the graph does not know can never fire and are dropped. *)
type plan = {
  n : int;  (* graph nodes *)
  m : int;  (* automaton states *)
  inv : int;  (* n_labels * m: the first inverse key *)
  two_way : bool;  (* some transition steps an edge backwards *)
  rev_off : int array;  (* length n_labels * m + 1, doubled when [two_way] *)
  rev_src : int array;
  starts : int list;
  finals : int list;
}

(* The plan is pure index arithmetic: it needs the node count, the label
   id space and a symbol resolver — not the adjacency itself. That keeps
   one build path for every backing (heap-frozen CSR, mapped file,
   mapped file plus overlay). *)
let build_plan ~n ~n_labels ~label_of_name nfa =
  let m = Nfa.n_states nfa in
  let inv = n_labels * m in
  let trans =
    List.filter_map
      (fun (qs, sym, qd) ->
        match label_of_name (Rpq.base_label sym) with
        | Some lbl -> Some (qs, (if Rpq.is_inverse sym then inv else 0) + (lbl * m) + qd)
        | None -> None)
      (Nfa.transitions nfa)
  in
  let two_way = List.exists (fun (_, k) -> k >= inv) trans in
  let keys = if two_way then 2 * inv else inv in
  let rev_off = Array.make (keys + 1) 0 in
  List.iter (fun (_, k) -> rev_off.(k + 1) <- rev_off.(k + 1) + 1) trans;
  for k = 1 to keys do
    rev_off.(k) <- rev_off.(k) + rev_off.(k - 1)
  done;
  let rev_src = Array.make (max rev_off.(keys) 1) 0 in
  let cursor = Array.copy rev_off in
  List.iter
    (fun (qs, k) ->
      rev_src.(cursor.(k)) <- qs;
      cursor.(k) <- cursor.(k) + 1)
    trans;
  { n; m; inv; two_way; rev_off; rev_src; starts = Nfa.starts nfa; finals = Nfa.finals nfa }

(* ------------------------------------------------------------------ *)
(* The one shared kernel: backward product BFS from the accepting
   product states (on every node, or on the caller's targets) over
   reversed product edges.

   Product states are int-encoded as [v * m + q]. Every state enters the
   queue at most once, so a single [n * m] int array doubles as the
   queue and the level structure: a level is the [queue[head, tail)]
   snapshot taken when it starts. Membership ("an accepting state is
   reachable from here") is one bit per product state. *)

type stats = {
  visits : int;
  dedup : int;
  levels : int list;  (* frontier size per level, BFS order; level 1 is the seed *)
  discovered : int;  (* distinct product states that entered the queue *)
  cancel_checks : int;  (* deadline polls performed *)
  interrupted : Deadline.reason option;  (* [Some _] iff the BFS stopped early *)
}

(* The kernel is abstract over how edges are iterated. It is
   instantiated twice below: flat over a Csr snapshot, which heap-frozen
   and mapped graphs share — per edge an offset probe, a packed-cell read
   and a closure call — and over a mapped view with its overlay. Out-edges
   are only walked when the plan has an inverse transition. *)
module type ADJACENCY = sig
  type g

  val iter_in : g -> int -> (int -> int -> unit) -> unit
  (** [iter_in g v f] calls [f label source] for every in-edge of [v]. *)

  val iter_out : g -> int -> (int -> int -> unit) -> unit
  (** [iter_out g v f] calls [f label destination] for every out-edge of [v]. *)
end

module Make_kernel (A : ADJACENCY) = struct
  let run ~want_dist ~deadline ~targets plan adj =
    let { n; m; inv; two_way; rev_off; rev_src; finals; _ } = plan in
    let size = n * m in
    let mem = Bitset.create size in
    let dist = if want_dist then Some (Array.make (max size 1) (-1)) else None in
    let set_dist =
      match dist with Some d -> fun idx level -> d.(idx) <- level | None -> fun _ _ -> ()
    in
    let queue = Array.make (max size 1) 0 in
    let head = ref 0 and tail = ref 0 in
    (* seed: every accepting product state on a target node, at distance 0 *)
    for v = 0 to n - 1 do
      match targets with
      | Some t when not t.(v) -> ()
      | _ ->
          List.iter
            (fun qf ->
              let idx = (v * m) + qf in
              if Bitset.test_and_set mem idx then begin
                set_dist idx 0;
                queue.(!tail) <- idx;
                incr tail
              end)
            finals
    done;
    let dedup = ref 0 in
    (* Cooperative cancellation. [guarded] keeps the no-deadline hot path
       at one bool test per visit — the clock is never read and
       [interrupted] can never flip. Deadline polls happen at every level
       boundary and every [checkpoint_interval] visits within a level;
       [checks] totals them for the EXPLAIN report. *)
    let guarded = not (Deadline.is_none deadline) in
    let interrupted = ref None in
    let checks = ref 0 in
    let poll () =
      incr checks;
      match Deadline.check deadline with Some _ as r -> interrupted := r | None -> ()
    in
    let stopping () = guarded && Option.is_some !interrupted in
    let level = ref 0 and levels = ref [] in
    (* push every (v, qs) whose [key] transition leads into the state
       being expanded *)
    let push_preds key v =
      for k = rev_off.(key) to rev_off.(key + 1) - 1 do
        let pidx = (v * m) + rev_src.(k) in
        if Bitset.test_and_set mem pidx then begin
          set_dist pidx !level;
          queue.(!tail) <- pidx;
          incr tail
        end
        else incr dedup
      done
    in
    if guarded then poll ();
    while !head < !tail && not (stopping ()) do
      incr level;
      let hi = !tail in
      levels := (hi - !head) :: !levels;
      let since = ref 0 in
      (* expand queue.(head): push the product-BFS predecessors of (v', q') *)
      while !head < hi && not (stopping ()) do
        (if guarded then begin
           incr since;
           if !since >= checkpoint_interval then begin
             since := 0;
             poll ()
           end
         end);
        let idx = queue.(!head) in
        let v' = idx / m and q' = idx mod m in
        A.iter_in adj v' (fun lbl v -> push_preds ((lbl * m) + q') v);
        (* (v, qs) -l~-> (v', q') walks an edge v' -l-> v backwards *)
        if two_way then A.iter_out adj v' (fun lbl v -> push_preds (inv + (lbl * m) + q') v);
        incr head
      done;
      if guarded then poll ()
    done;
    let stats =
      {
        visits = !head;
        dedup = !dedup;
        levels = List.rev !levels;
        discovered = !tail;
        cancel_checks = !checks;
        interrupted = !interrupted;
      }
    in
    (mem, dist, stats)
end

module Flat_kernel = Make_kernel (struct
  type g = Csr.t

  let iter_in = Csr.iter_in
  let iter_out = Csr.iter_out
end)

(* Mapped base plus a non-empty overlay: the base's Csr range, then
   the overlay's per-node adjacency. *)
module View_kernel = Make_kernel (struct
  type g = Disk_csr.view

  let iter_in = Disk_csr.iter_in
  let iter_out = Disk_csr.iter_out
end)

(* ------------------------------------------------------------------ *)
(* Evaluation sources: which backing an evaluation runs against. *)

type source =
  | Frozen of Digraph.t * Csr.t
      (** A heap graph with its frozen snapshot (the snapshot must be
          [Csr.freeze] of exactly that graph). *)
  | Mapped of Disk_csr.view
      (** An mmap-backed packed graph, overlay included. *)

let source_nodes = function
  | Frozen (_, csr) -> Csr.n_nodes csr
  | Mapped view -> Disk_csr.n_nodes view

let plan_of_source source nfa =
  match source with
  | Frozen (g, csr) ->
      (* labels only ever grow; size by the live graph so any id the
         snapshot knows indexes in range *)
      build_plan ~n:(Csr.n_nodes csr)
        ~n_labels:(max (Digraph.n_labels g) (Csr.n_labels csr))
        ~label_of_name:(Digraph.label_of_name g) nfa
  | Mapped view ->
      build_plan ~n:(Disk_csr.n_nodes view) ~n_labels:(Disk_csr.n_labels view)
        ~label_of_name:(Disk_csr.label_of_name view) nfa

let run_on_source ~want_dist ~deadline ~targets plan = function
  | Frozen (_, csr) -> Flat_kernel.run ~want_dist ~deadline ~targets plan csr
  | Mapped view when Disk_csr.overlay_is_empty view ->
      Flat_kernel.run ~want_dist ~deadline ~targets plan (Disk_csr.base view)
  | Mapped view -> View_kernel.run ~want_dist ~deadline ~targets plan view

(* Run the kernel and publish counters/span attributes — the shared tail
   of every public entry point. *)
let kernel sp ~deadline ~want_dist ~targets source nfa =
  let plan = plan_of_source source nfa in
  let mem, dist, stats = run_on_source ~want_dist ~deadline ~targets plan source in
  Counter.incr c_runs;
  Counter.add c_states (plan.n * plan.m);
  Counter.add c_visits stats.visits;
  Counter.add c_dedup stats.dedup;
  Counter.add c_cancel_checks stats.cancel_checks;
  (match stats.interrupted with
  | Some r ->
      Counter.incr c_cancelled;
      Trace.set_str sp "interrupted" (Deadline.reason_to_string r)
  | None -> ());
  Trace.set_int sp "product_states" (plan.n * plan.m);
  Trace.set_int sp "frontier_visits" stats.visits;
  Trace.set_int sp "early_exit_hits" stats.dedup;
  (plan, mem, dist, stats)

let selected_of_mem plan mem =
  let { n; m; starts; _ } = plan in
  let selected = Array.make n false in
  for v = 0 to n - 1 do
    selected.(v) <- List.exists (fun q0 -> Bitset.mem mem ((v * m) + q0)) starts
  done;
  selected

(* ------------------------------------------------------------------ *)
(* the EXPLAIN report: everything one evaluation did, as data *)

type stop_reason =
  | Empty_automaton
  | Saturated
  | Frontier_exhausted
  | Timed_out
  | Cancelled

type report = {
  automaton_states : int;
  graph_nodes : int;
  product_states : int;
  frontier_visits : int;
  early_exit_hits : int;
  par_levels : int;
  seq_fallbacks : int;
  report_levels : int list;
  stop : stop_reason;
  selected : int;  (* nodes the query selects *)
}

let stop_reason_to_string = function
  | Empty_automaton -> "empty-automaton"
  | Saturated -> "saturated"
  | Frontier_exhausted -> "frontier-exhausted"
  | Timed_out -> "timed-out"
  | Cancelled -> "cancelled"

let stop_reason_of_string = function
  | "empty-automaton" -> Ok Empty_automaton
  | "saturated" -> Ok Saturated
  | "frontier-exhausted" -> Ok Frontier_exhausted
  | "timed-out" -> Ok Timed_out
  | "cancelled" -> Ok Cancelled
  | other -> Error (Printf.sprintf "unknown stop reason %S" other)

let empty_report ~graph_nodes =
  {
    automaton_states = 0;
    graph_nodes;
    product_states = 0;
    frontier_visits = 0;
    early_exit_hits = 0;
    par_levels = 0;
    seq_fallbacks = 0;
    report_levels = [];
    stop = Empty_automaton;
    selected = 0;
  }

let report_of_stats plan ~selected (stats : stats) =
  let size = plan.n * plan.m in
  {
    automaton_states = plan.m;
    graph_nodes = plan.n;
    product_states = size;
    frontier_visits = stats.visits;
    early_exit_hits = stats.dedup;
    par_levels = 0;
    seq_fallbacks = 0;
    report_levels = stats.levels;
    stop =
      (match stats.interrupted with
      | Some Deadline.Timed_out -> Timed_out
      | Some Deadline.Cancelled -> Cancelled
      | None ->
          if stats.discovered >= size && size > 0 then Saturated else Frontier_exhausted);
    selected;
  }

module Json = Gps_graph.Json

let report_to_json r =
  let int n = Json.Number (float_of_int n) in
  Json.Object
    [
      ("automaton_states", int r.automaton_states);
      ("graph_nodes", int r.graph_nodes);
      ("product_states", int r.product_states);
      ("frontier_visits", int r.frontier_visits);
      ("early_exit_hits", int r.early_exit_hits);
      ( "levels",
        Json.Array
          (List.map (fun frontier -> Json.Object [ ("frontier", int frontier) ]) r.report_levels)
      );
      ("stop", Json.String (stop_reason_to_string r.stop));
      ("selected", int r.selected);
    ]

let report_of_json v =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name v with
    | Some (Json.Number f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "report field %S missing or not an integer" name)
  in
  let* automaton_states = int_field "automaton_states" in
  let* graph_nodes = int_field "graph_nodes" in
  let* product_states = int_field "product_states" in
  let* frontier_visits = int_field "frontier_visits" in
  let* early_exit_hits = int_field "early_exit_hits" in
  let* selected = int_field "selected" in
  let* stop =
    match Json.member "stop" v with
    | Some (Json.String s) -> stop_reason_of_string s
    | _ -> Error "report field \"stop\" missing or not a string"
  in
  let* report_levels =
    match Json.member "levels" v with
    | Some (Json.Array items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest -> (
              match Json.member "frontier" item with
              | Some (Json.Number f) when Float.is_integer f -> go (int_of_float f :: acc) rest
              | _ -> Error "level entries need an integer \"frontier\"")
        in
        go [] items
    | _ -> Error "report field \"levels\" missing or not an array"
  in
  Ok
    {
      automaton_states;
      graph_nodes;
      product_states;
      frontier_visits;
      early_exit_hits;
      par_levels = 0;
      seq_fallbacks = 0;
      report_levels;
      stop;
      selected;
    }

let pp_report ppf r =
  let levels =
    String.concat " " (List.mapi (fun i f -> Printf.sprintf "%d:%d" (i + 1) f) r.report_levels)
  in
  Format.fprintf ppf
    "automaton states   %d@\n\
     graph nodes        %d@\n\
     product states     %d@\n\
     frontier visits    %d@\n\
     early-exit hits    %d@\n\
     levels             %d (%s)@\n\
     stop reason        %s@\n\
     selected nodes     %d@\n"
    r.automaton_states r.graph_nodes r.product_states r.frontier_visits r.early_exit_hits
    (List.length r.report_levels)
    (if levels = "" then "-" else levels)
    (stop_reason_to_string r.stop)
    r.selected

(* ------------------------------------------------------------------ *)
(* public entry points — all route through the one kernel *)

type interrupted = { reason : Deadline.reason; partial : report }

let count_selected sel = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sel

(* Evaluate [nfa] on [source]: the selection, the EXPLAIN report of the
   run and, if the deadline fired, why it stopped. *)
let evaluate sp ~deadline ~targets source nfa =
  if Nfa.n_states nfa = 0 then
    let n = source_nodes source in
    (Array.make n false, empty_report ~graph_nodes:n, None)
  else begin
    let plan, mem, _, stats = kernel sp ~deadline ~want_dist:false ~targets source nfa in
    let sel = selected_of_mem plan mem in
    (sel, report_of_stats plan ~selected:(count_selected sel) stats, stats.interrupted)
  end

let source_span = function
  | Frozen _ -> "eval.select_frozen"
  | Mapped _ -> "eval.select_mapped"

let select ?domains:_ g q =
  Trace.with_span "eval.select" @@ fun sp ->
  let sel, _, _ =
    evaluate sp ~deadline:Deadline.none ~targets:None (Frozen (g, Csr.freeze g)) (Rpq.nfa q)
  in
  sel

let run ?(deadline = Deadline.none) ?targets source q =
  (match targets with
  | Some t when Array.length t <> source_nodes source -> invalid_arg "Eval.run: targets size mismatch"
  | _ -> ());
  Trace.with_span (source_span source) @@ fun sp ->
  match evaluate sp ~deadline ~targets source (Rpq.nfa q) with
  | sel, report, None -> Ok (sel, report)
  | _, partial, Some reason -> Error { reason; partial }

let select_source_report_result = run

let select_nodes g q =
  let sel = select g q in
  List.filter (fun v -> sel.(v)) (List.init (Array.length sel) Fun.id)

let consistent g q ~pos ~neg =
  let sel = select g q in
  List.for_all (fun v -> sel.(v)) pos && not (List.exists (fun v -> sel.(v)) neg)

let count g q = List.length (select_nodes g q)

let witness_lengths g q =
  Trace.with_span "eval.witness_lengths" @@ fun sp ->
  let nfa = Rpq.nfa q in
  let n = Digraph.n_nodes g and m = Nfa.n_states nfa in
  let result = Array.make n None in
  if m = 0 then result
  else begin
    let plan, _, dist, _ =
      kernel sp ~deadline:Deadline.none ~want_dist:true ~targets:None (Frozen (g, Csr.freeze g)) nfa
    in
    let dist = Option.get dist in
    for v = 0 to n - 1 do
      let best =
        List.fold_left
          (fun acc q0 ->
            let d = dist.((v * m) + q0) in
            if d = -1 then acc else match acc with Some b when b <= d -> acc | _ -> Some d)
          None plan.starts
      in
      result.(v) <- best
    done;
    result
  end

let product_states g q = Digraph.n_nodes g * Nfa.n_states (Rpq.nfa q)

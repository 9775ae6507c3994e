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
   the graph does not know can never fire and are dropped.

   Bit [l] of [into.(q')] is set iff some transition on label [l]
   enters [q'] ([into.(m + q')] for [l~]): an edge whose label no such
   transition reads is skipped after one test. Labels from
   [Sys.int_size] up have no bit and always probe the index. *)
type plan = {
  n : int;  (* graph nodes *)
  m : int;  (* automaton states *)
  sh : int;  (* ceil (log2 m): product state (v, q) is (v lsl sh) lor q *)
  inv : int;  (* n_labels * m: the first inverse key *)
  two_way : bool;  (* some transition steps an edge backwards *)
  rev_off : int array;  (* length n_labels * m + 1, doubled when [two_way] *)
  rev_src : int array;
  into : int array;  (* length 2m: per-state label masks, forward then inverse *)
  starts : int array;
  finals : int array;
}

(* The plan is pure index arithmetic: it needs the node count, the label
   id space and a symbol resolver — not the adjacency itself. That keeps
   one build path for every backing (heap-frozen CSR, mapped file,
   mapped file plus overlay). *)
let build_plan ~n ~n_labels ~label_of_name nfa =
  let m = Nfa.n_states nfa in
  let inv = n_labels * m in
  let into = Array.make (2 * m) 0 in
  let trans =
    List.filter_map
      (fun (qs, sym, qd) ->
        match label_of_name (Rpq.base_label sym) with
        | Some lbl ->
            let back = Rpq.is_inverse sym in
            let slot = if back then m + qd else qd in
            if lbl < Sys.int_size then into.(slot) <- into.(slot) lor (1 lsl lbl);
            Some (qs, (if back then inv else 0) + (lbl * m) + qd)
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
  let rec ceil_log2 sh = if 1 lsl sh >= m then sh else ceil_log2 (sh + 1) in
  let starts = Array.of_list (Nfa.starts nfa) and finals = Array.of_list (Nfa.finals nfa) in
  { n; m; sh = ceil_log2 0; inv; two_way; rev_off; rev_src; into; starts; finals }

(* ------------------------------------------------------------------ *)
(* The one kernel: backward product BFS over reversed product edges,
   from a fresh start (the accepting product states on every node, or
   on the caller's targets) or a seeded one (a membership closed over
   an older graph, plus the product states the edges added since
   enable).

   Every state enters the queue at most once, so one int array of
   [n * m] slots doubles as the queue and the level structure: a level
   is the [queue[head, tail)] snapshot taken when it starts. Membership
   ("an accepting state is reachable from here") is one bit per product
   state; the shift encoding rounds its index space up to [n lsl sh]. *)

type stats = {
  visits : int;
  dedup : int;
  levels : int list;  (* frontier size per level, BFS order; level 1 is the seed *)
  discovered : int;  (* product states in the membership when the run stopped *)
  cancel_checks : int;  (* deadline polls performed *)
  interrupted : Deadline.reason option;  (* [Some _] iff the BFS stopped early *)
}

(* Edges beyond the kernel's [Csr.t] (a mapped view's overlay, the
   insertions an [Incremental] table has seen): per node, its extra
   in-edges as [(label, source)] and out-edges as [(label, destination)]. *)
type edges = {
  iter_in : int -> (int -> int -> unit) -> unit;
  iter_out : int -> (int -> int -> unit) -> unit;
}

type start =
  | Fresh of { targets : bool array option; keep : bool }
      (** seed every accepting state on a target node; with [keep] the
          membership outlives the run instead of going back to the pool *)
  | Seeded of {
      bits : Bitset.t;
      nodes : int;
      set : int;
      since : (int -> int -> int -> unit) -> unit;
    }
      (** continue [bits] ([set] of them set), closed over the first
          [nodes] nodes and every edge except the [(src, label, dst)]
          triples [since] yields *)

(* Queue and bitset outlive a run in one slot. A run takes them when
   they are big enough; a finished run clears the bits it set and puts
   them back, a run that raises drops them, and a run that finds the
   slot empty (another run holds it) allocates its own. A run that keeps
   its membership (a seeded run, or [keep]) uses the pooled queue only.
   New ones are sized up to a power of two, so a graph that grows by a
   few nodes keeps fitting the pool. *)
type scratch = { queue : int array; mem : Bitset.t }

let pool : scratch option Atomic.t = Atomic.make None

let rec pow2_above k n = if k >= n then k else pow2_above (2 * k) n

let take_scratch ~states ~space =
  match Atomic.exchange pool None with
  | Some s when Array.length s.queue >= states && Bitset.length s.mem >= space -> s
  | _ -> { queue = Array.make (pow2_above 1 states) 0; mem = Bitset.create (pow2_above 1 space) }

(* The kernel scans the packed cells of a [Csr.t] inline (a heap freeze
   or a mapped base) and [extra]'s edges through callbacks built once
   per run; out-edges only for an inverse transition. It returns the
   selection (with [select]), the distances (with [want_dist]), its
   stats and, when the membership is kept and the run finished, the
   membership. *)
let run_kernel ~want_dist ~select ~deadline ~start plan csr extra =
  let { n; m; sh; inv; two_way; rev_off; rev_src; into; starts; finals } = plan in
  let space = n lsl sh in
  let pooled = match start with Fresh { keep = false; _ } -> true | _ -> false in
  let ({ queue; _ } as scratch) = take_scratch ~states:(n * m) ~space:(if pooled then space else 0) in
  let mem =
    match start with
    | Fresh { keep = false; _ } -> scratch.mem
    | Fresh { keep = true; _ } -> Bitset.create space
    | Seeded { bits; _ } -> Bitset.extend bits space
  in
  let dist = if want_dist then Some (Array.make (max space 1) (-1)) else None in
  let tail = ref 0 and dedup = ref 0 and level = ref 0 in
  let enqueue idx =
    if Bitset.test_and_set mem idx then begin
      (match dist with Some d -> d.(idx) <- !level | None -> ());
      queue.(!tail) <- idx;
      incr tail
    end
    else incr dedup
  in
  (* push every (v, qs) whose [key] transition leads into the state
     being expanded; a pooled bitset may be larger than this run's
     index space, so the endpoint is range-checked here *)
  let push key v =
    if v >= n then invalid_arg "Eval: edge endpoint out of range";
    for k = rev_off.(key) to rev_off.(key + 1) - 1 do
      enqueue ((v lsl sh) lor rev_src.(k))
    done
  in
  let seed_finals ~from =
    for v = from to n - 1 do
      for i = 0 to Array.length finals - 1 do
        enqueue ((v lsl sh) lor finals.(i))
      done
    done
  in
  (* the seed, at distance 0 (the finals are distinct, so no fresh seed
     counts as a dedup) *)
  let set0 =
    match start with
    | Fresh { targets = None; _ } ->
        seed_finals ~from:0;
        0
    | Fresh { targets = Some t; _ } ->
        for v = 0 to n - 1 do
          if t.(v) then
            for i = 0 to Array.length finals - 1 do
              enqueue ((v lsl sh) lor finals.(i))
            done
        done;
        0
    | Seeded { nodes; set; since; _ } ->
        (* a new edge src -l-> dst is the product edge (src, qs) ->
           (dst, qd) of each qs -l-> qd, and (dst, qs) -> (src, qd) of
           each qs -l~-> qd: its tail joins when its head is a member.
           A head that joins later is expanded, and its expansion walks
           the new edge itself. *)
        since (fun src lbl dst ->
            for qd = 0 to m - 1 do
              if Bitset.mem mem ((dst lsl sh) lor qd) then push ((lbl * m) + qd) src;
              if two_way && Bitset.mem mem ((src lsl sh) lor qd) then
                push (inv + (lbl * m) + qd) dst
            done);
        (* nodes the membership does not cover yet start accepting *)
        seed_finals ~from:nodes;
        set
  in
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
  (* the edges of [v'] in one direction whose label [mask] admits;
     [key0 + lbl * m] is the transition key of such an edge *)
  let scan (off : Csr.int_arr) (cells : Csr.int_arr) v' mask key0 =
    let lo = off.{v'} and hi = off.{v' + 1} in
    Csr.check_range cells lo hi;
    for i = lo to hi - 1 do
      let c = Bigarray.Array1.unsafe_get cells i in
      let lbl = Csr.cell_label c in
      if lbl >= Sys.int_size || (mask lsr lbl) land 1 <> 0 then push (key0 + (lbl * m)) (Csr.cell_node c)
    done
  in
  let in_off = Csr.in_off csr and in_cells = Csr.in_cells csr in
  let out_off = Csr.out_off csr and out_cells = Csr.out_cells csr in
  let base_n = Csr.n_nodes csr in
  let qmask = (1 lsl sh) - 1 in
  (* extra edges skip the masks: [push] probes the index for any label *)
  let cur = ref 0 in
  let on_in lbl v = push (!cur + (lbl * m)) v in
  (* (v, qs) -l~-> (v', q') walks an edge v' -l-> v backwards *)
  let on_out lbl v = push (inv + !cur + (lbl * m)) v in
  let head = ref 0 and levels = ref [] in
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
      let v' = idx lsr sh and q' = idx land qmask in
      if v' < base_n then begin
        scan in_off in_cells v' into.(q') q';
        if two_way then scan out_off out_cells v' into.(m + q') (inv + q')
      end;
      (match extra with
      | Some { iter_in; iter_out } ->
          cur := q';
          iter_in v' on_in;
          if two_way then iter_out v' on_out
      | None -> ());
      incr head
    done;
    if guarded then poll ()
  done;
  let selected =
    if select then begin
      let selected = Array.make n false in
      for v = 0 to n - 1 do
        for i = 0 to Array.length starts - 1 do
          if Bitset.mem mem ((v lsl sh) lor starts.(i)) then selected.(v) <- true
        done
      done;
      selected
    end
    else [||]
  in
  let kept =
    if pooled then begin
      (* the run spent O(n) on [selected]; filling its [n lsl sh] bits
         is no more while [m <= 64] *)
      Bitset.clear ~below:space mem;
      None
    end
    else if Option.is_none !interrupted then Some mem
    else None
  in
  Atomic.set pool (Some scratch);
  let stats =
    {
      visits = !head;
      dedup = !dedup;
      levels = List.rev !levels;
      discovered = set0 + !tail;
      cancel_checks = !checks;
      interrupted = !interrupted;
    }
  in
  (selected, dist, stats, kept)

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

(* A heap graph's plan: labels only ever grow, so size by the live graph
   and any id the snapshot knows indexes in range. *)
let heap_plan ~n g csr nfa =
  build_plan ~n ~n_labels:(max (Digraph.n_labels g) (Csr.n_labels csr))
    ~label_of_name:(Digraph.label_of_name g) nfa

(* The plan, the adjacency and the extra edges of a source. *)
let source_parts source nfa =
  match source with
  | Frozen (g, csr) -> (heap_plan ~n:(Csr.n_nodes csr) g csr nfa, csr, None)
  | Mapped view ->
      ( build_plan ~n:(Disk_csr.n_nodes view) ~n_labels:(Disk_csr.n_labels view)
          ~label_of_name:(Disk_csr.label_of_name view) nfa,
        Disk_csr.base view,
        if Disk_csr.overlay_is_empty view then None
        else
          Some
            { iter_in = Disk_csr.overlay_iter_in view; iter_out = Disk_csr.overlay_iter_out view }
      )

(* Run the kernel and publish counters/span attributes — the shared tail
   of every entry point. *)
let kernel sp ~deadline ~want_dist ~select ~start plan csr extra =
  let selected, dist, stats, kept = run_kernel ~want_dist ~select ~deadline ~start plan csr extra in
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
  (selected, dist, stats, kept)

(* The key of an automaton's live entry: the automaton itself, states,
   starts, finals and transitions, each symbol length-prefixed. Two
   queries that compile to the same automaton share an entry; two that
   print alike but compile differently do not. *)
let live_key nfa =
  let b = Buffer.create 64 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let ints l =
    int (List.length l);
    List.iter int l
  in
  int (Nfa.n_states nfa);
  ints (Nfa.starts nfa);
  ints (Nfa.finals nfa);
  List.iter
    (fun (qs, sym, qd) ->
      int qs;
      int (String.length sym);
      Buffer.add_string b sym;
      int qd)
    (Nfa.transitions nfa);
  Buffer.contents b

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
  resumed : bool;  (* continued a live entry instead of seeding every final *)
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
    resumed = false;
  }

let report_of_stats plan ~resumed ~selected (stats : stats) =
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
    resumed;
  }

module Json = Gps_graph.Json

let report_to_json r =
  let int n = Json.Number (float_of_int n) in
  (* only a resumed run says so: a fresh run's report is unchanged *)
  let resumed = if r.resumed then [ ("resumed", Json.Bool true) ] else [] in
  Json.Object
    ([
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
    @ resumed)

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
  let* resumed =
    match Json.member "resumed" v with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "report field \"resumed\" is not a boolean"
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
      resumed;
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
     selected nodes     %d@\n%s"
    r.automaton_states r.graph_nodes r.product_states r.frontier_visits r.early_exit_hits
    (List.length r.report_levels)
    (if levels = "" then "-" else levels)
    (stop_reason_to_string r.stop)
    r.selected
    (if r.resumed then "resumed            yes\n" else "")

(* ------------------------------------------------------------------ *)
(* public entry points — all route through the one kernel *)

type interrupted = { reason : Deadline.reason; partial : report }

let count_selected sel = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sel

(* Evaluate [nfa] on [source]: the selection, the EXPLAIN report of the
   run and, if the deadline fired, why it stopped. A mapped view that has
   taken writes continues its automaton's live entry when the table holds
   one no newer than the view, and records the membership it ends with;
   an interrupted or raising run puts nothing back. *)
let evaluate sp ~deadline ~targets source nfa =
  if Nfa.n_states nfa = 0 then
    let n = source_nodes source in
    (Array.make n false, empty_report ~graph_nodes:n, None)
  else begin
    let plan, csr, extra = source_parts source nfa in
    let live =
      match (source, targets) with
      | Mapped view, None when not (Disk_csr.overlay_is_empty view) ->
          let key = live_key nfa in
          Some (view, key, Disk_csr.take_live view key)
      | _ -> None
    in
    let start =
      match live with
      | Some (view, _, Some { Disk_csr.bits; nodes; at; set }) ->
          Seeded { bits; nodes; set; since = Disk_csr.iter_log view ~from:at }
      | Some (_, _, None) -> Fresh { targets = None; keep = true }
      | None -> Fresh { targets; keep = false }
    in
    let sel, _, stats, kept =
      kernel sp ~deadline ~want_dist:false ~select:true ~start plan csr extra
    in
    (match (live, kept) with
    | Some (view, key, _), Some bits ->
        Disk_csr.put_live view key
          { Disk_csr.bits; nodes = plan.n; at = Disk_csr.view_overlay_edges view; set = stats.discovered }
    | _ -> ());
    let resumed = match start with Seeded _ -> true | Fresh _ -> false in
    (sel, report_of_stats plan ~resumed ~selected:(count_selected sel) stats, stats.interrupted)
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
    let csr = Csr.freeze g in
    let plan = heap_plan ~n:(Csr.n_nodes csr) g csr nfa in
    let _, dist, _, _ =
      kernel sp ~deadline:Deadline.none ~want_dist:true ~select:false
        ~start:(Fresh { targets = None; keep = false })
        plan csr None
    in
    let dist = Option.get dist in
    for v = 0 to n - 1 do
      let best =
        Array.fold_left
          (fun acc q0 ->
            let d = dist.((v lsl plan.sh) lor q0) in
            if d = -1 then acc else match acc with Some b when b <= d -> acc | _ -> Some d)
          None plan.starts
      in
      result.(v) <- best
    done;
    result
  end

let product_states g q = Digraph.n_nodes g * Nfa.n_states (Rpq.nfa q)

(* ------------------------------------------------------------------ *)
(* live memberships: the seeded start for [Incremental] *)

type live = {
  nfa : Nfa.t;
  plan : plan;  (* [plan.n] is the node count the bits cover *)
  labels : int;  (* the label count the plan was built for *)
  bits : Bitset.t;
  set : int;
}

let live_run ?prev g csr edges nfa start =
  Trace.with_span "eval.live" @@ fun sp ->
  let n = Digraph.n_nodes g and labels = max (Digraph.n_labels g) (Csr.n_labels csr) in
  (* a plan depends on the graph only through its node and label counts *)
  let plan =
    match prev with
    | Some l when l.labels = labels -> { l.plan with n }
    | _ -> heap_plan ~n g csr nfa
  in
  let _, _, stats, kept =
    kernel sp ~deadline:Deadline.none ~want_dist:false ~select:false ~start plan csr (Some edges)
  in
  (* no deadline, so the run finished and kept its membership *)
  { nfa; plan; labels; bits = Option.get kept; set = stats.discovered }

let live g csr edges q = live_run g csr edges (Rpq.nfa q) (Fresh { targets = None; keep = true })

let resume l g csr edges ~since =
  live_run ~prev:l g csr edges l.nfa
    (Seeded { bits = l.bits; nodes = l.plan.n; set = l.set; since })

let live_selects l v =
  let { sh; starts; n; _ } = l.plan in
  if v < n then begin
    let hit = ref false in
    for i = 0 to Array.length starts - 1 do
      if Bitset.mem l.bits ((v lsl sh) lor starts.(i)) then hit := true
    done;
    !hit
  end
  else
    (* the run saw no edge at [v]: only the empty word can select it *)
    Array.exists (Nfa.is_final l.nfa) starts

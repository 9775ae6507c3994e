module Digraph = Gps_graph.Digraph
module Counter = Gps_obs.Counter
module Trace = Gps_obs.Trace

type outcome = Found of string list | Uninformative | Timeout

let c_searches = Counter.make "witness.searches"
let c_expansions = Counter.make "witness.expansions"
let c_timeouts = Counter.make "witness.timeouts"

let search g ?(fuel = 100_000) ?max_len v ~negatives =
  Trace.with_span "witness.search" @@ fun sp ->
  let sets = Subset.create () in
  let fold_members f acc s = Array.fold_left f acc (Subset.elements sets s) in
  (* Subset step: image of a frontier under one label. *)
  let step s lbl =
    Subset.of_list sets
      (fold_members (fun acc u -> List.rev_append (Digraph.succ_by_label g u lbl) acc) [] s)
  in
  (* Labels available from a frontier, ascending. *)
  let out_labels s =
    List.sort_uniq Int.compare
      (fold_members
         (fun acc u -> List.fold_left (fun acc (l, _) -> l :: acc) acc (Digraph.out_edges g u))
         [] s)
  in
  (* A pair of interned frontiers is one int, so equal pairs are equal
     keys however their sets were built. *)
  let seen = Hashtbl.create 256 in
  let key sv sn = (sv lsl 31) lor sn in
  let q = Queue.create () in
  let sv0 = Subset.of_list sets [ v ] and sn0 = Subset.of_list sets negatives in
  Hashtbl.add seen (key sv0 sn0) ();
  Queue.add (sv0, sn0, [], 0) q;
  let remaining = ref fuel in
  let rec go () =
    if Queue.is_empty q then Uninformative
    else if !remaining <= 0 then Timeout
    else begin
      decr remaining;
      let sv, sn, rev_word, depth = Queue.pop q in
      if sn = Subset.empty then Found (List.rev_map (Digraph.label_name g) rev_word)
      else begin
        let depth_ok = match max_len with None -> true | Some k -> depth < k in
        if depth_ok then
          List.iter
            (fun lbl ->
              let sv' = step sv lbl in
              if sv' <> Subset.empty then begin
                let sn' = step sn lbl in
                let k = key sv' sn' in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  Queue.add (sv', sn', lbl :: rev_word, depth + 1) q
                end
              end)
            (out_labels sv);
        go ()
      end
    end
  in
  (* ε is a path of every node, so with at least one negative the initial
     pair has S_N ≠ ∅ and the search proceeds; with none, ε is returned
     immediately (any query selecting everything is consistent so far). *)
  let outcome = go () in
  let expansions = fuel - !remaining in
  Counter.incr c_searches;
  Counter.add c_expansions expansions;
  if outcome = Timeout then Counter.incr c_timeouts;
  Trace.set_int sp "expansions" expansions;
  Trace.set_str sp "outcome"
    (match outcome with Found _ -> "found" | Uninformative -> "uninformative" | Timeout -> "timeout");
  outcome

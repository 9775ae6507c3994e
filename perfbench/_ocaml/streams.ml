(* The request streams both the out-of-process runs and the traced run
   replay: op [i] of a workload is the same request line in both. *)

module I = Inputs
module Json = Gps.Graph.Json

type kind = Read | Write

type t = {
  warm : int;  (** ops [0 .. warm-1] are one pass over the distinct reads *)
  line : int -> string;
  kind : int -> kind;
  check : int -> string -> bool;
      (** the immediate correctness check of op [i]'s response line *)
}

let is_ok l = String.length l > 10 && String.sub l 0 10 = "{\"ok\":true"

(* [~warm:false] drops the warm-up pass: every op is part of the cycle. *)
let storm ?(warm = true) (s : I.storm) =
  let n = if warm then Array.length s.I.texts else 0 in
  let q i = if i < n then i else s.I.pick (i - n) in
  {
    warm = n;
    line = (fun i -> s.I.lines.(q i));
    kind = (fun _ -> Read);
    check = (fun i l -> Wire.has_member l ~key:"\"nodes\":" s.I.expected.(q i));
  }

(* rw-overlay. Reads of queries the writes cannot touch must equal the
   base answer; reads of the others are kept and checked after the run
   (base answer ⊆ read ⊆ final answer: edges are only ever added). *)
type rw_state = {
  rw : I.rw;
  seed : int;
  mutable deferred : (int * string) list;  (** (query, response line) *)
  mutable applied : int list;  (** batches acked with every edge added *)
}

let rw_query st i =
  let n = Array.length st.rw.I.rtexts in
  if i < n then `Read i
  else match I.rw_op st.rw ~seed:st.seed (i - n) with I.Read q -> `Read q | I.Write j -> `Write j

let rw st =
  let n = Array.length st.rw.I.rtexts in
  let added = Printf.sprintf "\"added\":%d," I.batch_edges in
  {
    warm = n;
    line =
      (fun i ->
        match rw_query st i with
        | `Read q -> st.rw.I.rlines.(q)
        | `Write j -> I.write_line (st.rw.I.batch j));
    kind = (fun i -> match rw_query st i with `Read _ -> Read | `Write _ -> Write);
    check =
      (fun i l ->
        match rw_query st i with
        | `Write j ->
            let ok = is_ok l && Wire.find_sub l added <> None in
            if ok then st.applied <- j :: st.applied;
            ok
        | `Read q when st.rw.I.touches.(q) ->
            st.deferred <- (q, l) :: st.deferred;
            is_ok l
        | `Read q ->
            Wire.has_member l ~key:"\"nodes\":"
              (I.nodes_member st.rw.I.base_expected.(q)));
  }

let nodes_of_line l =
  match Json.member "nodes" (Json.value_of_string l) with
  | Some (Json.Array xs) -> List.map (function Json.String s -> s | _ -> "") xs
  | _ -> []

let subset a b =
  let t = Hashtbl.create (List.length b) in
  List.iter (fun x -> Hashtbl.replace t x ()) b;
  List.for_all (Hashtbl.mem t) a

(* After the run: the deferred reads against the final graph, plus one
   probe per query (sent through [ask]) that must equal the in-process
   evaluation of base + applied edges. Returns (checked, failed).

   One more batch goes first, with nothing else in flight. The server
   can cache a miss evaluated before a concurrent add_edges after that
   batch's invalidation (add_edges leaves the catalog version, and so
   the cache key, unchanged), and the stale answer then stands until the
   next batch touching its labels; the closing batch clears it, so the
   probes check the overlay rather than replay that race. Reads during
   the run are still checked against the base and final answers. *)
let rw_verify st ~ask =
  let j = 1 + List.fold_left max (-1) st.applied in
  let closing = ask (I.write_line (st.rw.I.batch j)) in
  let closing_ok = is_ok closing && Wire.find_sub closing (Printf.sprintf "\"added\":%d," I.batch_edges) <> None in
  if closing_ok then st.applied <- j :: st.applied;
  let g = I.rw_final st.rw st.applied in
  let final = Array.map (I.reference g) st.rw.I.rtexts in
  let bad = ref (if closing_ok then 0 else 1) in
  let fail what q =
    incr bad;
    Printf.eprintf "rw-overlay: %s of %s is wrong\n%!" what st.rw.I.rtexts.(q)
  in
  List.iter
    (fun (q, l) ->
      let got = nodes_of_line l in
      if not (subset st.rw.I.base_expected.(q) got && subset got final.(q)) then fail "a read" q)
    st.deferred;
  Array.iteri
    (fun q line ->
      if not (Wire.has_member (ask line) ~key:"\"nodes\":" (I.nodes_member final.(q))) then fail "the post-run probe" q)
    st.rw.I.rlines;
  (1 + List.length st.deferred + Array.length st.rw.I.rlines, !bad)

(* ------------------------------------------------------------------ *)
(* session dialogs: one script is a start, its answers, and a stop *)

let session_id l =
  match Wire.find_sub l "\"session\":" with
  | None -> None
  | Some i ->
      let j = ref (i + 10) in
      while !j < String.length l && l.[!j] >= '0' && l.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub l (i + 10) (!j - i - 10))

(* the view returned after [k] answers of [s] must ask the next
   recorded question, or — after the last one — be the finished view
   selecting exactly the goal's nodes *)
let view_ok (s : I.script) k l =
  is_ok l
  &&
  match List.nth_opt s.I.answers k with
  | Some a -> (
      match I.view_node a with
      | Some node -> Wire.find_sub l node <> None
      | None -> Wire.find_sub l "\"ask\":\"propose\"" <> None)
  | None -> Wire.find_sub l "\"ask\":\"finished\"" <> None && Wire.has_member l ~key:"\"selects\":" s.I.selects

let stop_ok (s : I.script) l = is_ok l && Wire.find_sub l (Printf.sprintf "\"questions\":%d}" s.I.questions) <> None

(* number of round trips of a script: start + answers + stop *)
let script_ops (s : I.script) = List.length s.I.answers + 2

let script_line (s : I.script) ~id k =
  if k = 0 then I.start_line s
  else if k <= List.length s.I.answers then I.answer_line id (List.nth s.I.answers (k - 1))
  else I.stop_line id

let script_check (s : I.script) k l =
  if k <= List.length s.I.answers then view_ok s k l else stop_ok s l

module Digraph = Gps_graph.Digraph
module Subset = Gps_learning.Subset
module Counter = Gps_obs.Counter

let c_scores = Counter.make "informative.scores"
let c_entries = Counter.make "informative.memo_entries"
let c_timeouts = Counter.make "informative.timeouts"

(* Work cap of one node scoring, in new memo entries; the counterpart of
   Witness_search's default fuel of 100 000 expanded pairs. *)
let fuel = 100_000

(* Flat open-addressing map between non-negative ints; [find] answers -1
   for an absent key. Load factor at most 1/2. *)
module Memo = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 1024 (-1); vals = Array.make 1024 0; size = 0 }

  let slot keys k =
    let mask = Array.length keys - 1 in
    let rec probe i =
      let k' = keys.(i) in
      if k' = k || k' < 0 then i else probe ((i + 1) land mask)
    in
    let h = k * 0x1f3779b97f4a7c15 in
    probe ((h lxor (h lsr 32)) land mask)

  let find t k =
    let i = slot t.keys k in
    if t.keys.(i) = k then t.vals.(i) else -1

  let grow t =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t.keys k in
          t.keys.(j) <- k;
          t.vals.(j) <- vals.(i)
        end)
      keys

  let add t k v =
    let i = slot t.keys k in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t

  let copy t = { keys = Array.copy t.keys; vals = Array.copy t.vals; size = t.size }
end

(* Marks a row not yet computed and a node without a witness. *)
let unset = [| -1 |]

type tables = {
  n : int;
  bound : int;
  adj : int array array;
      (* label-grouped successor index: node -> [| l0; d0; l1; d1; … |],
         sorted by (label, destination) *)
  sets : Subset.t;
  single : int array;  (* node -> id of its singleton *)
  mutable rows : int array array;
      (* subset id -> [| l0; S0; l1; S1; … |]: the labels leaving the set,
         ascending, each with the id of its image *)
  masked : bool;  (* fewer than 62 labels: label sets fit an int *)
  node_mask : int array;
  mutable masks : int array;  (* subset id -> its label set, or -1 *)
  memo : Memo.t;  (* (S, T, r) -> count, see [count] *)
  wit : int array array;  (* node -> the last uncovered word found for it *)
  tag : int array;  (* node -> negative set its [score] was computed under *)
  score : int array;  (* the count under [tag]; -1 when the cap was hit *)
  heap : int array;
  prio : int array;
  cursor : int array;  (* per label, work array of [compute_row] *)
  stamp : int array;  (* per node, work array of [compute_row] *)
  mutable clock : int;
  mutable buf : int array;
  mutable fuel_left : int;
  mutable last_negs : Digraph.node list;
  mutable last_nid : int;
}

type t = { graph : Digraph.t; bound : int; mutable live : tables option }

let create g ~bound =
  if bound < 0 || bound > 63 then
    invalid_arg (Printf.sprintf "Informative.create: bound %d outside 0..63" bound);
  { graph = g; bound; live = None }

let graph t = t.graph
let release t = t.live <- None

(* Every mutable table is copied, work arrays and [clock] with its
   [stamp] included, so the copy goes on exactly as the original would.
   What never changes once built is shared: the successor index, the
   singletons, the node masks, and each row and member array. *)
let copy_tables tb =
  {
    tb with
    sets = Subset.copy tb.sets;
    rows = Array.copy tb.rows;
    masks = Array.copy tb.masks;
    memo = Memo.copy tb.memo;
    wit = Array.copy tb.wit;
    tag = Array.copy tb.tag;
    score = Array.copy tb.score;
    heap = Array.copy tb.heap;
    prio = Array.copy tb.prio;
    cursor = Array.copy tb.cursor;
    stamp = Array.copy tb.stamp;
    buf = Array.copy tb.buf;
  }

let copy t = { t with live = Option.map copy_tables t.live }

let build g bound =
  let n = Digraph.n_nodes g and n_labels = Digraph.n_labels g in
  let adj =
    Array.init n (fun u ->
        let pairs = List.sort_uniq compare (Digraph.out_edges g u) in
        Array.of_list (List.concat_map (fun (l, d) -> [ l; d ]) pairs))
  in
  let masked = n_labels < 62 in
  let node_mask u =
    let a = adj.(u) and m = ref 0 in
    if masked then Array.iteri (fun i l -> if i land 1 = 0 then m := !m lor (1 lsl l)) a;
    !m
  in
  let sets = Subset.create () in
  {
    n;
    bound;
    adj;
    sets;
    single = Array.init n (fun v -> Subset.intern sets [| v |]);
    rows = Array.make (max 64 (2 * n)) unset;
    masked;
    node_mask = Array.init n node_mask;
    masks = Array.make (max 64 (2 * n)) (-1);
    memo = Memo.create ();
    wit = Array.make n unset;
    tag = Array.make n (-1);
    score = Array.make n 0;
    heap = Array.make n 0;
    prio = Array.make n 0;
    cursor = Array.make (max n_labels 1) 0;
    stamp = Array.make n 0;
    clock = 0;
    buf = Array.make 64 0;
    fuel_left = fuel;
    last_negs = [];
    last_nid = Subset.empty;
  }

let tables t =
  match t.live with
  | Some tb -> tb
  | None ->
      let tb = build t.graph t.bound in
      t.live <- Some tb;
      tb

(* ------------------------------------------------------------------ *)
(* The subset automaton of the graph, built lazily one row at a time *)

(* The row of a set: bucket the members' (label, destination) pairs by
   label (a counting sort over the labels present), then deduplicate each
   bucket with a stamp per node, sort it and intern it. *)
let compute_row tb s =
  let members = Subset.elements tb.sets s in
  let cursor = tb.cursor in
  let labels = ref [] and total = ref 0 in
  Array.iter
    (fun u ->
      let a = tb.adj.(u) in
      for i = 0 to (Array.length a / 2) - 1 do
        let l = a.(2 * i) in
        if cursor.(l) = 0 then labels := l :: !labels;
        cursor.(l) <- cursor.(l) + 1
      done;
      total := !total + (Array.length a / 2))
    members;
  let labels = Array.of_list !labels in
  Array.sort Int.compare labels;
  let off = ref 0 in
  Array.iter
    (fun l ->
      let c = cursor.(l) in
      cursor.(l) <- !off;
      off := !off + c)
    labels;
  if Array.length tb.buf < !total then tb.buf <- Array.make (2 * !total) 0;
  let buf = tb.buf in
  Array.iter
    (fun u ->
      let a = tb.adj.(u) in
      for i = 0 to (Array.length a / 2) - 1 do
        let l = a.(2 * i) in
        buf.(cursor.(l)) <- a.((2 * i) + 1);
        cursor.(l) <- cursor.(l) + 1
      done)
    members;
  let row = Array.make (2 * Array.length labels) 0 in
  let start = ref 0 in
  Array.iteri
    (fun j l ->
      let stop = cursor.(l) in
      cursor.(l) <- 0;
      tb.clock <- tb.clock + 1;
      let k = ref 0 in
      for i = !start to stop - 1 do
        let d = buf.(i) in
        if tb.stamp.(d) <> tb.clock then begin
          tb.stamp.(d) <- tb.clock;
          buf.(!start + !k) <- d;
          incr k
        end
      done;
      let image = Array.sub buf !start !k in
      Array.sort Int.compare image;
      row.(2 * j) <- l;
      row.((2 * j) + 1) <- Subset.intern tb.sets image;
      start := stop)
    labels;
  row

let grown a len fill =
  let a' = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let row tb s =
  if s >= Array.length tb.rows then tb.rows <- grown tb.rows (s + 1) unset;
  let r = tb.rows.(s) in
  if r != unset then r
  else begin
    let r = compute_row tb s in
    tb.rows.(s) <- r;
    r
  end

(* The labels leaving a set, as a bit set (when [tb.masked]). *)
let mask tb s =
  if s >= Array.length tb.masks then tb.masks <- grown tb.masks (s + 1) (-1);
  let m = tb.masks.(s) in
  if m >= 0 then m
  else begin
    let m = Array.fold_left (fun m u -> m lor tb.node_mask.(u)) 0 (Subset.elements tb.sets s) in
    tb.masks.(s) <- m;
    m
  end

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* Image of set [t] under label [l]. *)
let step tb t l =
  if t = Subset.empty then Subset.empty
  else begin
    let r = row tb t in
    let rec search lo hi =
      if lo >= hi then Subset.empty
      else
        let mid = (lo + hi) / 2 in
        let l' = r.(2 * mid) in
        if l' = l then r.((2 * mid) + 1) else if l' < l then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length r / 2)
  end

(* ------------------------------------------------------------------ *)
(* Counting uncovered words *)

exception Out_of_fuel

let sat_add a b =
  let s = a + b in
  if s < a then max_int else s

(* [count tb s t r]: the number of words w with |w| <= r whose walks from
   the non-empty set [s] exist and from the set [t] do not (ε counts
   when [t] is empty). Memoized on (s, t, r) packed into one int: set
   ids below 2^28, r below 64. A set covered by [t] counts nothing: its
   walks are walks of [t]. Each new entry costs one unit of fuel. The
   last letter needs only the label sets, not the images. *)
let rec count tb s t r =
  if r = 0 then if t = Subset.empty then 1 else 0
  else if r = 1 && tb.masked then
    (* one more label: each label of [s] that [t] lacks, plus ε if [t] is empty *)
    if t = Subset.empty then 1 + popcount (mask tb s)
    else popcount (mask tb s land lnot (mask tb t))
  else begin
    let key = (s lsl 34) lor (t lsl 6) lor r in
    let c = Memo.find tb.memo key in
    if c >= 0 then c
    else begin
      if tb.fuel_left = 0 then raise Out_of_fuel;
      tb.fuel_left <- tb.fuel_left - 1;
      let c =
        if t <> Subset.empty && Subset.included tb.sets s t then 0
        else begin
          let row = row tb s in
          let acc = ref (if t = Subset.empty then 1 else 0) in
          let i = ref 0 in
          while !i < Array.length row do
            acc := sat_add !acc (count tb row.(!i + 1) (step tb t row.(!i)) (r - 1));
            i := !i + 2
          done;
          !acc
        end
      in
      Memo.add tb.memo key c;
      c
    end
  end

(* An uncovered word of length <= r; requires [count tb s t r > 0], whose
   entries it reads back. *)
let witness tb s t r =
  let rec go s t r acc =
    if t = Subset.empty then acc
    else begin
      let row = row tb s in
      let rec pick i =
        let t' = step tb t row.(i) in
        if count tb row.(i + 1) t' (r - 1) > 0 then go row.(i + 1) t' (r - 1) (row.(i) :: acc)
        else pick (i + 2)
      in
      pick 0
    end
  in
  Array.of_list (List.rev (go s t r []))

(* Does the word escape the negative set [nid]? *)
let uncovered tb nid w =
  let rec go t i = t = Subset.empty || (i < Array.length w && go (step tb t w.(i)) (i + 1)) in
  go nid 0

(* Score [v] exactly under [nid] and record it, tagged with [nid]. *)
let rescore tb nid v =
  Counter.incr c_scores;
  tb.fuel_left <- fuel;
  let s = tb.single.(v) in
  let c =
    match count tb s nid tb.bound with
    | c -> if nid = Subset.empty then c - 1 else c
    | exception Out_of_fuel ->
        Counter.incr c_timeouts;
        -1
  in
  Counter.add c_entries (fuel - tb.fuel_left);
  tb.tag.(v) <- nid;
  tb.score.(v) <- c;
  if c > 0 && nid <> Subset.empty then begin
    tb.fuel_left <- fuel;
    tb.wit.(v) <- witness tb s nid tb.bound
  end;
  c

let negatives_id tb negatives =
  if negatives != tb.last_negs then begin
    tb.last_negs <- negatives;
    tb.last_nid <- Subset.of_list tb.sets negatives
  end;
  tb.last_nid

(* Counts only fall as negatives are added, so a score recorded under a
   subset of [nid] bounds the score under [nid] from above. [max_int]
   when there is no such score (never scored, scored under a set that is
   not a subset — after an undo — or the cap was hit there). *)
let upper_bound tb nid v =
  let tag = tb.tag.(v) in
  if tag = nid then tb.score.(v)
  else if tag >= 0 && tb.score.(v) >= 0 && Subset.included tb.sets tag nid then tb.score.(v)
  else max_int

(* Uninformative stays uninformative (a bound of 0); a witness stays
   valid unless a negative added since covers it; only then re-score. *)
let informative tb nid v =
  nid = Subset.empty
  ||
  let b = upper_bound tb nid v in
  b > 0
  && (tb.tag.(v) = nid
     ||
     let w = tb.wit.(v) in
     (w != unset && uncovered tb nid w) || rescore tb nid v > 0)

(* ------------------------------------------------------------------ *)
(* Public interface *)

let is_informative t ~negatives v =
  let tb = tables t in
  informative tb (negatives_id tb negatives) v

let score t ~negatives v =
  let tb = tables t in
  let nid = negatives_id tb negatives in
  let c = if tb.tag.(v) = nid then tb.score.(v) else rescore tb nid v in
  if c < 0 then None else Some c

(* Lazy greedy (CELF): a max-heap of upper bounds, ties to the lowest node
   id. The top is re-scored until it is exact; an exact top beats every
   bound below it, so it is the argmax a full re-scoring would return. *)
let best t ~negatives ~excluded =
  let tb = tables t in
  let nid = negatives_id tb negatives in
  let heap = tb.heap and prio = tb.prio in
  let candidate c = c > 0 || (c = 0 && nid = Subset.empty) in
  let higher a b = prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) in
  let size = ref 0 in
  for v = 0 to tb.n - 1 do
    if not (excluded v) then begin
      let b = upper_bound tb nid v in
      if candidate b then begin
        prio.(v) <- b;
        heap.(!size) <- v;
        incr size
      end
    end
  done;
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && higher heap.(l + 1) heap.(l) then l + 1 else l in
      if higher heap.(c) heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift_down c
      end
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  let rec loop () =
    if !size = 0 then None
    else begin
      let v = heap.(0) in
      if tb.tag.(v) = nid then Some v
      else begin
        let c = rescore tb nid v in
        if candidate c then prio.(v) <- c
        else begin
          decr size;
          heap.(0) <- heap.(!size)
        end;
        sift_down 0;
        loop ()
      end
    end
  in
  loop ()

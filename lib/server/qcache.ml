(* Registered mirrors of the per-instance totals: the timeseries sampler
   reads the global counter registry, and the cache hit ratio per
   interval comes from these deltas. *)
let c_hits = Gps_obs.Counter.make "qcache.hits"
let c_misses = Gps_obs.Counter.make "qcache.misses"
let c_evictions = Gps_obs.Counter.make "qcache.evictions"
let c_invalidations = Gps_obs.Counter.make "qcache.invalidations"
let c_delta_invalidations = Gps_obs.Counter.make "qcache.delta_invalidations"

type key = { graph : string; version : int; query : string }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  delta_invalidations : int;
  size : int;
  capacity : int;
}

type 'v slot = {
  value : 'v;
  labels : string list option;  (* sorted base alphabet; None = unknown *)
  nullable : bool;
  mutable stamp : int;
}

(* A graph's deltas: how many have run, and the last of them that
   touched each label and that added nodes. *)
type deltas = { mutable gen : int; mutable nodes_gen : int; label_gen : (string, int) Hashtbl.t }

type 'v t = {
  tbl : (key, 'v slot) Hashtbl.t;
  deltas : (string, deltas) Hashtbl.t;  (* absent = no delta yet *)
  capacity : int;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable delta_invalidations : int;
}

let create ?(capacity = 256) () =
  {
    tbl = Hashtbl.create (max 16 capacity);
    deltas = Hashtbl.create 16;
    capacity = max 0 capacity;
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    delta_invalidations = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some slot ->
          t.tick <- t.tick + 1;
          slot.stamp <- t.tick;
          t.hits <- t.hits + 1;
          Gps_obs.Counter.incr c_hits;
          Some slot.value
      | None ->
          t.misses <- t.misses + 1;
          Gps_obs.Counter.incr c_misses;
          None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best <= slot.stamp -> acc
        | _ -> Some (key, slot.stamp))
      t.tbl None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1;
      Gps_obs.Counter.incr c_evictions
  | None -> ()

(* Must hold t.lock. *)
let insert t ?labels ?(nullable = true) key value =
  if t.capacity > 0 then begin
    if Hashtbl.mem t.tbl key then Hashtbl.remove t.tbl key
    else if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key { value; labels; nullable; stamp = t.tick }
  end

let add t ?labels ?nullable key value = with_lock t (fun () -> insert t ?labels ?nullable key value)

let generation t ~graph =
  with_lock t (fun () -> match Hashtbl.find_opt t.deltas graph with Some d -> d.gen | None -> 0)

(* Would a delta after [generation] have dropped this entry? The same
   rule as [invalidate_delta]'s [touched], asked of the last delta that
   touched each label. *)
let touched_since d ~generation ~labels ~nullable =
  d.gen > generation
  &&
  match labels with
  | None -> true
  | Some ls ->
      (nullable && d.nodes_gen > generation)
      || List.exists
           (fun l -> match Hashtbl.find_opt d.label_gen l with Some g -> g > generation | None -> false)
           ls

let add_at t ~generation ?labels ?(nullable = true) key value =
  with_lock t (fun () ->
      let fresh =
        match Hashtbl.find_opt t.deltas key.graph with
        | Some d -> not (touched_since d ~generation ~labels ~nullable)
        | None -> true
      in
      if fresh then insert t ?labels ~nullable key value;
      fresh)

let invalidate t ~graph =
  with_lock t (fun () ->
      let doomed =
        Hashtbl.fold (fun key _ acc -> if key.graph = graph then key :: acc else acc) t.tbl []
      in
      List.iter (Hashtbl.remove t.tbl) doomed;
      let n = List.length doomed in
      t.invalidations <- t.invalidations + n;
      if n > 0 then Gps_obs.Counter.add c_invalidations n;
      n)

(* both lists sorted ascending *)
let rec intersects xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> false
  | x :: xs', y :: ys' ->
      let c = String.compare x y in
      if c = 0 then true else if c < 0 then intersects xs' ys else intersects xs ys'

let invalidate_delta t ~graph ~labels ~new_nodes =
  with_lock t (fun () ->
      let d =
        match Hashtbl.find_opt t.deltas graph with
        | Some d -> d
        | None ->
            let d = { gen = 0; nodes_gen = 0; label_gen = Hashtbl.create 8 } in
            Hashtbl.add t.deltas graph d;
            d
      in
      d.gen <- d.gen + 1;
      List.iter (fun l -> Hashtbl.replace d.label_gen l d.gen) labels;
      if new_nodes > 0 then d.nodes_gen <- d.gen;
      let touched slot =
        match slot.labels with
        | None -> true (* unknown alphabet: conservatively touched *)
        | Some ls -> intersects ls labels || (new_nodes > 0 && slot.nullable)
      in
      let doomed =
        Hashtbl.fold
          (fun key slot acc -> if key.graph = graph && touched slot then key :: acc else acc)
          t.tbl []
      in
      List.iter (Hashtbl.remove t.tbl) doomed;
      let n = List.length doomed in
      t.delta_invalidations <- t.delta_invalidations + n;
      if n > 0 then Gps_obs.Counter.add c_delta_invalidations n;
      n)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        delta_invalidations = t.delta_invalidations;
        size = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })

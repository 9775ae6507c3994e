module Digraph = Gps_graph.Digraph
module Csr = Gps_graph.Csr
module Disk_csr = Gps_graph.Disk_csr

(* level gauge: how many catalog entries are currently mmap-backed *)
let g_file_backed = Gps_obs.Gauge.make "catalog.file_backed"

type template = Gps_interactive.Session.t option Atomic.t

type backing =
  | Heap of { graph : Digraph.t; csr : Csr.t; order : int array; template : template }
  | File of {
      disk : Disk_csr.t;
      file : string;
      lock : Mutex.t;
      mutable heap : (Digraph.t * int * template) option;
    }

type entry = { name : string; version : int; backing : backing }

type t = { tbl : (string, entry) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 16; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let file_backed e = match e.backing with File _ -> true | Heap _ -> false
let backing_file e = match e.backing with File f -> Some f.file | Heap _ -> None

let refresh_file_gauge t =
  (* called under the catalog lock *)
  let n = Hashtbl.fold (fun _ e acc -> if file_backed e then acc + 1 else acc) t.tbl 0 in
  Gps_obs.Gauge.set_int g_file_backed n

let install t name backing =
  with_lock t (fun () ->
      let version =
        match Hashtbl.find_opt t.tbl name with
        | Some prev -> prev.version + 1
        | None -> 1
      in
      let entry = { name; version; backing } in
      Hashtbl.replace t.tbl name entry;
      refresh_file_gauge t;
      entry)

let put t ~name graph =
  (* freeze and sort outside the lock: they are the expensive part and
     touch no shared state *)
  let csr = Csr.freeze graph in
  let names = Array.init (Digraph.n_nodes graph) (Digraph.node_name graph) in
  let order = Array.init (Array.length names) Fun.id in
  (* a merge sort over a plain array: about half the time of
     [Array.sort] through [node_name] on a 3 000-node graph *)
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) order;
  install t name (Heap { graph; csr; order; template = Atomic.make None })

let put_file t ~name path =
  match Disk_csr.open_map path with
  | Error _ as e -> e
  | Ok disk ->
      Ok (install t name (File { disk; file = path; lock = Mutex.create (); heap = None }))

let find t name = with_lock t (fun () -> Hashtbl.find_opt t.tbl name)

let list t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
      |> List.sort (fun a b -> compare a.name b.name))

let count t = with_lock t (fun () -> Hashtbl.length t.tbl)

(* ------------------------------------------------------------------ *)
(* backing-generic accessors *)

let eval_source e =
  match e.backing with
  | Heap { graph; csr; _ } -> Gps_query.Eval.Frozen (graph, csr)
  | File { disk; _ } -> Gps_query.Eval.Mapped (Disk_csr.snapshot disk)

let iter_selected e source sel =
  match (e.backing, source) with
  | Heap { graph; order; _ }, _ ->
      fun f -> Array.iter (fun v -> if sel.(v) then f (Digraph.node_name graph v)) order
  | File _, Gps_query.Eval.Mapped v ->
      let names = Disk_csr.selected_names v sel in
      fun f -> List.iter f names
  | File _, Gps_query.Eval.Frozen _ -> invalid_arg "Catalog.iter_selected: not this entry's source"

let n_nodes e =
  match e.backing with
  | Heap { graph; _ } -> Digraph.n_nodes graph
  | File { disk; _ } -> Disk_csr.n_nodes (Disk_csr.snapshot disk)

let n_edges e =
  match e.backing with
  | Heap { graph; _ } -> Digraph.n_edges graph
  | File { disk; _ } -> Disk_csr.n_edges (Disk_csr.snapshot disk)

let n_labels e =
  match e.backing with
  | Heap { graph; _ } -> Digraph.n_labels graph
  | File { disk; _ } -> Disk_csr.n_labels (Disk_csr.snapshot disk)

let labels e =
  match e.backing with
  | Heap { graph; _ } -> List.sort compare (Digraph.labels graph)
  | File { disk; _ } ->
      let v = Disk_csr.snapshot disk in
      let acc = ref [] in
      for l = Disk_csr.n_labels v - 1 downto 0 do
        acc := Disk_csr.label_name v l :: !acc
      done;
      List.sort compare !acc

let known_label e base =
  match e.backing with
  | Heap { graph; _ } -> Digraph.label_of_name graph base <> None
  | File { disk; _ } -> Disk_csr.label_of_name (Disk_csr.snapshot disk) base <> None

let overlay_edges e =
  match e.backing with Heap _ -> 0 | File { disk; _ } -> Disk_csr.overlay_edges disk

let template e =
  match e.backing with
  | Heap { graph; template; _ } -> (graph, template)
  | File ({ disk; lock; _ } as f) ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          let v = Disk_csr.snapshot disk in
          let stamp = Disk_csr.view_overlay_edges v in
          match f.heap with
          | Some (g, s, template) when s = stamp -> (g, template)
          | _ ->
              let g = Disk_csr.to_digraph v in
              let template = Atomic.make None in
              f.heap <- Some (g, stamp, template);
              (g, template))

let graph e = fst (template e)

let add_edges e triples =
  match e.backing with
  | Heap _ ->
      Error
        (Printf.sprintf "graph %S is heap-backed; add_edges needs a file-backed graph (load_file)"
           e.name)
  | File { disk; _ } -> Ok (Disk_csr.add_edges disk triples)

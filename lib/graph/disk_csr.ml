type int_arr = Csr.int_arr
type char_arr = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let word = 8
let header_cells = 8
let format_version = 1
let magic_string = "GPSCSR01"

(* The magic as a word cell: the 8 magic bytes read as one little-endian
   int. 0x3130525343535047 < max_int, so it round-trips through an OCaml
   int. If the bytes match but the word does not, the file was written
   on a foreign byte order. *)
let magic_word =
  let w = ref 0 in
  for i = 7 downto 0 do
    w := (!w lsl 8) lor Char.code magic_string.[i]
  done;
  !w

let pad8 n = (n + 7) land lnot 7

(* Integrity trailer, appended after the packed payload: 8 magic bytes,
   u64 LE payload length, u64 LE CRC32 of the payload. Readers that
   predate the trailer already tolerate size >= expected, so old and new
   binaries interoperate in both directions. *)
let trailer_magic = "GPSCKSUM"
let trailer_bytes = 24

(* ------------------------------------------------------------------ *)
(* Mapped base file                                                    *)
(* ------------------------------------------------------------------ *)

type base = {
  b_path : string;
  n : int;
  nl : int;
  csr : Csr.t;  (* the adjacency sections, read in place *)
  name_off : int_arr;  (* n+1, byte offsets into the name blob *)
  chars : char_arr;  (* the whole file *)
  name_blob_at : int;  (* absolute byte offset of the name blob *)
  b_labels : string array;  (* decoded eagerly: nl is small *)
  b_label_ids : (string, int) Hashtbl.t;
  bytes_total : int;
  data_bytes : int;  (* payload size the header implies (trailer excluded) *)
  stored_crc : int option;  (* from the trailer, if the file has one *)
}

type open_error =
  | No_such_file of string
  | Not_regular of string
  | Bad_magic
  | Bad_endianness
  | Bad_version of int
  | Truncated of { expected : int; actual : int }
  | Corrupted of string

let pp_open_error ppf = function
  | No_such_file p -> Format.fprintf ppf "no such file: %s" p
  | Not_regular p -> Format.fprintf ppf "not a regular file: %s" p
  | Bad_magic -> Format.fprintf ppf "bad magic (not a GPSCSR file)"
  | Bad_endianness -> Format.fprintf ppf "foreign byte order (file written on a big-endian host?)"
  | Bad_version v -> Format.fprintf ppf "unsupported format version %d (expected %d)" v format_version
  | Truncated { expected; actual } ->
      Format.fprintf ppf "truncated: %d bytes, header implies %d" actual expected
  | Corrupted msg -> Format.fprintf ppf "corrupted: %s" msg

let open_error_to_string e = Format.asprintf "%a" pp_open_error e

(* Section start indices, in word cells. *)
let out_off_at _n = header_cells
let in_off_at n = header_cells + (n + 1)
let out_cells_at n = header_cells + (2 * (n + 1))
let in_cells_at n m = header_cells + (2 * (n + 1)) + m
let label_off_at n m = header_cells + (2 * (n + 1)) + (2 * m)
let name_off_at n m nl = label_off_at n m + (nl + 1)
let ints_total n m nl = name_off_at n m nl + (n + 1)

let file_size n m nl ~label_bytes ~name_bytes =
  (ints_total n m nl * word) + pad8 (label_bytes + name_bytes)

let sub_ints (ints : int_arr) at len : int_arr = Bigarray.Array1.sub ints at len

let blob_string (chars : char_arr) ~at ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get chars (at + i))
  done;
  Bytes.unsafe_to_string b

let map_fd fd kind len =
  Bigarray.array1_of_genarray (Unix.map_file fd kind Bigarray.c_layout false [| len |])

let open_base path =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let* fd =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd -> Ok fd
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Error (No_such_file path)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let st = Unix.fstat fd in
      let* () = if st.Unix.st_kind = Unix.S_REG then Ok () else Error (Not_regular path) in
      let size = st.Unix.st_size in
      let* () =
        if size >= header_cells * word then Ok ()
        else Error (Truncated { expected = header_cells * word; actual = size })
      in
      let chars = map_fd fd Bigarray.char size in
      let* () =
        let ok = ref true in
        for i = 0 to 7 do
          if Bigarray.Array1.get chars i <> magic_string.[i] then ok := false
        done;
        if !ok then Ok () else Error Bad_magic
      in
      let ints = map_fd fd Bigarray.int (size / word) in
      let* () = if ints.{0} = magic_word then Ok () else Error Bad_endianness in
      let version = ints.{1} in
      let* () = if version = format_version then Ok () else Error (Bad_version version) in
      let n = ints.{2} and m = ints.{3} and nl = ints.{4} in
      let label_bytes = ints.{5} and name_bytes = ints.{6} in
      let* () =
        if n >= 0 && m >= 0 && nl >= 0 && label_bytes >= 0 && name_bytes >= 0
           && n <= Csr.max_nodes && nl <= Csr.max_labels
        then Ok ()
        else Error (Corrupted "negative or oversized header field")
      in
      let expected = file_size n m nl ~label_bytes ~name_bytes in
      let* () = if size >= expected then Ok () else Error (Truncated { expected; actual = size }) in
      let u64_at off =
        let w = ref 0 in
        for i = 7 downto 0 do
          w := (!w lsl 8) lor Char.code (Bigarray.Array1.get chars (off + i))
        done;
        !w
      in
      let* stored_crc =
        if size < expected + trailer_bytes then Ok None
        else begin
          let is_trailer = ref true in
          for i = 0 to 7 do
            if Bigarray.Array1.get chars (expected + i) <> trailer_magic.[i] then
              is_trailer := false
          done;
          if not !is_trailer then Ok None (* pre-trailer file, or foreign padding *)
          else if u64_at (expected + 8) <> expected then
            Error (Corrupted "checksum trailer length disagrees with header")
          else Ok (Some (u64_at (expected + 16)))
        end
      in
      let out_off = sub_ints ints (out_off_at n) (n + 1) in
      let in_off = sub_ints ints (in_off_at n) (n + 1) in
      let out_cells = sub_ints ints (out_cells_at n) m in
      let in_cells = sub_ints ints (in_cells_at n m) m in
      let label_off = sub_ints ints (label_off_at n m) (nl + 1) in
      let name_off = sub_ints ints (name_off_at n m nl) (n + 1) in
      let* () =
        let endpoints_ok =
          out_off.{0} = 0 && out_off.{n} = m && in_off.{0} = 0 && in_off.{n} = m
          && label_off.{0} = 0
          && label_off.{nl} = label_bytes
          && name_off.{0} = 0
          && name_off.{n} = name_bytes
        in
        if endpoints_ok then Ok () else Error (Corrupted "offset endpoints disagree with header")
      in
      let label_blob_at = ints_total n m nl * word in
      let name_blob_at = label_blob_at + label_bytes in
      let b_labels =
        Array.init nl (fun l ->
            blob_string chars ~at:(label_blob_at + label_off.{l})
              ~len:(label_off.{l + 1} - label_off.{l}))
      in
      let b_label_ids = Hashtbl.create (max 16 nl) in
      Array.iteri (fun l s -> if not (Hashtbl.mem b_label_ids s) then Hashtbl.add b_label_ids s l) b_labels;
      Ok
        {
          b_path = path;
          n;
          nl;
          csr = Csr.of_arrays ~n_labels:nl ~out_off ~in_off ~out_cells ~in_cells;
          name_off;
          chars;
          name_blob_at;
          b_labels;
          b_label_ids;
          bytes_total = size;
          data_bytes = expected;
          stored_crc;
        })

type verify_result =
  | Verified of { crc : int; bytes : int }
  | No_trailer
  | Crc_mismatch of { stored : int; computed : int }

let verify_base b =
  match b.stored_crc with
  | None -> No_trailer
  | Some stored ->
      let computed = Crc32.bigstring b.chars ~pos:0 ~len:b.data_bytes in
      if computed = stored then Verified { crc = stored; bytes = b.data_bytes }
      else Crc_mismatch { stored; computed }

(* Node [v]'s name is the byte span [name_at b v, name_at b (v + 1)) of
   the mapping, range-checked once per name so the in-place reads below
   cannot leave it. *)
let check_node b v =
  if v < 0 || v >= b.n then invalid_arg (Printf.sprintf "Disk_csr.node_name: node %d out of range" v)

let name_at b v =
  let at = b.name_blob_at + b.name_off.{v} in
  if at < 0 || at > Bigarray.Array1.dim b.chars then invalid_arg "Disk_csr: name offsets out of range";
  at

let name_end b v =
  let at = name_at b v and stop = name_at b (v + 1) in
  if stop < at then invalid_arg "Disk_csr: name offsets out of range";
  stop

let base_node_name b v =
  check_node b v;
  let at = name_at b v in
  blob_string b.chars ~at ~len:(name_end b v - at)

(* [String.compare] order between base names, read in place: sorting or
   searching the names builds no string, and the loops allocate nothing
   (the sort makes O(n log n) of these calls). *)
let compare_base_names b u v =
  check_node b u;
  check_node b v;
  let pu = name_at b u and pv = name_at b v in
  let lu = name_end b u - pu and lv = name_end b v - pv in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < lu && !i < lv do
    c :=
      Char.compare
        (Bigarray.Array1.unsafe_get b.chars (pu + !i))
        (Bigarray.Array1.unsafe_get b.chars (pv + !i));
    incr i
  done;
  if !c <> 0 then !c else Int.compare lu lv

let compare_base_name b u s =
  check_node b u;
  let pu = name_at b u in
  let lu = name_end b u - pu and ls = String.length s in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < lu && !i < ls do
    c := Char.compare (Bigarray.Array1.unsafe_get b.chars (pu + !i)) (String.unsafe_get s !i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare lu ls

(* Every base node id sorted by name; the sort is stable, so equal names
   keep ascending ids and the leftmost match of a name is its first id. *)
let sort_base_names b =
  let order = Array.init b.n Fun.id in
  Array.stable_sort (compare_base_names b) order;
  order

let find_base_name b order s =
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_base_name b order.(mid) s < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length order && compare_base_name b order.(!lo) s = 0 then Some order.(!lo)
  else None

(* ------------------------------------------------------------------ *)
(* Delta overlay                                                       *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type overlay = {
  o_count : int;  (* overlay edges: also this snapshot's position in [o_log] *)
  o_log : int array;
      (* every overlay edge in insertion order, two cells each: the
         source, then [Csr.cell label destination]. Append-only and shared
         by every snapshot, each of which reads only its first
         [2 * o_count] cells; a writer that needs room copies it into a
         larger array, which older snapshots never see. *)
  o_out : int list Imap.t;  (* src -> Csr.cell (label, dst), newest first *)
  o_in : int list Imap.t;  (* dst -> Csr.cell (label, src), newest first *)
  x_names : string array;  (* overlay node names; id = base n + index *)
  x_ids : int Smap.t;  (* overlay node name -> absolute id *)
  x_labels : string array;  (* overlay label names; id = base nl + index *)
  x_label_ids : int Smap.t;
  order : int array;
      (* base node ids in name order, built by the first add_edges (its
         name lookups binary-search it); empty until then *)
}

let empty_overlay =
  {
    o_count = 0;
    o_log = [||];
    o_out = Imap.empty;
    o_in = Imap.empty;
    x_names = [||];
    x_ids = Smap.empty;
    x_labels = [||];
    x_label_ids = Smap.empty;
    order = [||];
  }

type live = { bits : Bitset.t; nodes : int; at : int; set : int }

let live_max_entries = 64
let live_max_bytes = 16 lsl 20
let live_bytes e = (Bitset.length e.bits + 7) / 8

(* Most recently put first; an entry in use is out of the list. *)
type live_table = { l_lock : Mutex.t; mutable entries : (string * live) list }

type t = {
  base : base;
  lock : Mutex.t;  (* serializes writers *)
  ov : overlay Atomic.t;
  live : live_table;
}

let open_map path =
  match open_base path with
  | Error _ as e -> e
  | Ok base ->
      Ok
        {
          base;
          lock = Mutex.create ();
          ov = Atomic.make empty_overlay;
          live = { l_lock = Mutex.create (); entries = [] };
        }

let path t = t.base.b_path
let base_nodes t = t.base.n
let base_edges t = Csr.n_edges t.base.csr
let base_labels t = t.base.nl
let file_bytes t = t.base.bytes_total
let has_trailer t = t.base.stored_crc <> None
let verify t = verify_base t.base
let overlay_edges t = (Atomic.get t.ov).o_count

type delta = { added : int; new_nodes : int; labels : string list }

let base_has_edge b ~src ~lbl ~dst =
  if src >= b.n || lbl >= b.nl || dst >= b.n then false
  else begin
    let found = ref false in
    Csr.iter_out b.csr src (fun l d -> if l = lbl && d = dst then found := true);
    !found
  end

let add_edges t triples =
  Mutex.protect t.lock (fun () ->
      let b = t.base in
      let ov = Atomic.get t.ov in
      let order = if Array.length ov.order = b.n then ov.order else sort_base_names b in
      let x_ids = ref ov.x_ids and x_new = ref [] and x_count = ref (Array.length ov.x_names) in
      let x_label_ids = ref ov.x_label_ids
      and x_lnew = ref []
      and x_lcount = ref (Array.length ov.x_labels) in
      let node_id name =
        match find_base_name b order name with
        | Some v -> v
        | None -> (
            match Smap.find_opt name !x_ids with
            | Some v -> v
            | None ->
                let v = b.n + !x_count in
                incr x_count;
                x_new := name :: !x_new;
                x_ids := Smap.add name v !x_ids;
                v)
      in
      let label_id name =
        match Hashtbl.find_opt b.b_label_ids name with
        | Some l -> l
        | None -> (
            match Smap.find_opt name !x_label_ids with
            | Some l -> l
            | None ->
                let l = b.nl + !x_lcount in
                if l >= Csr.max_labels then invalid_arg "Disk_csr.add_edges: too many labels";
                incr x_lcount;
                x_lnew := name :: !x_lnew;
                x_label_ids := Smap.add name l !x_label_ids;
                l)
      in
      let log = ref ov.o_log and count = ref ov.o_count in
      let append src cell =
        if (2 * !count) + 2 > Array.length !log then begin
          let grown = Array.make (max 64 (2 * Array.length !log)) 0 in
          Array.blit !log 0 grown 0 (2 * !count);
          log := grown
        end;
        !log.(2 * !count) <- src;
        !log.((2 * !count) + 1) <- cell;
        incr count
      in
      let o_out = ref ov.o_out and o_in = ref ov.o_in and touched = ref Smap.empty in
      List.iter
        (fun (src_n, lbl_n, dst_n) ->
          let src = node_id src_n and dst = node_id dst_n in
          let lbl = label_id lbl_n in
          let out_cell = Csr.cell lbl dst in
          (* dedup against the source's overlay cells, then its base cells *)
          let outs = Option.value (Imap.find_opt src !o_out) ~default:[] in
          if (not (List.exists (Int.equal out_cell) outs)) && not (base_has_edge b ~src ~lbl ~dst)
          then begin
            o_out := Imap.add src (out_cell :: outs) !o_out;
            o_in :=
              Imap.update dst
                (fun l -> Some (Csr.cell lbl src :: Option.value l ~default:[]))
                !o_in;
            append src out_cell;
            touched := Smap.add lbl_n () !touched
          end)
        triples;
      let appended old fresh = Array.append old (Array.of_list (List.rev fresh)) in
      let new_nodes = !x_count - Array.length ov.x_names in
      let ov' =
        {
          o_count = !count;
          o_log = !log;
          o_out = !o_out;
          o_in = !o_in;
          x_names = appended ov.x_names !x_new;
          x_ids = !x_ids;
          x_labels = appended ov.x_labels !x_lnew;
          x_label_ids = !x_label_ids;
          order;
        }
      in
      Atomic.set t.ov ov';
      { added = !count - ov.o_count; new_nodes; labels = List.map fst (Smap.bindings !touched) })

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type view = { v_base : base; v_ov : overlay; v_live : live_table }

let snapshot t = { v_base = t.base; v_ov = Atomic.get t.ov; v_live = t.live }
let n_nodes v = v.v_base.n + Array.length v.v_ov.x_names
let n_edges v = Csr.n_edges v.v_base.csr + v.v_ov.o_count
let n_labels v = v.v_base.nl + Array.length v.v_ov.x_labels
let view_overlay_edges v = v.v_ov.o_count
let overlay_is_empty v = v.v_ov.o_count = 0 && Array.length v.v_ov.x_names = 0

let node_name v id =
  if id < v.v_base.n then base_node_name v.v_base id
  else begin
    let i = id - v.v_base.n in
    if i < 0 || i >= Array.length v.v_ov.x_names then
      invalid_arg (Printf.sprintf "Disk_csr.node_name: node %d out of range" id);
    v.v_ov.x_names.(i)
  end

let label_name v l =
  if l >= 0 && l < v.v_base.nl then v.v_base.b_labels.(l)
  else begin
    let i = l - v.v_base.nl in
    if i < 0 || i >= Array.length v.v_ov.x_labels then
      invalid_arg (Printf.sprintf "Disk_csr.label_name: label %d out of range" l);
    v.v_ov.x_labels.(i)
  end

let label_of_name v s =
  match Hashtbl.find_opt v.v_base.b_label_ids s with
  | Some _ as r -> r
  | None -> Smap.find_opt s v.v_ov.x_label_ids

let iter_cells cells f = List.iter (fun c -> f (Csr.cell_label c) (Csr.cell_node c)) cells

let overlay_iter_in v id f =
  match Imap.find_opt id v.v_ov.o_in with None -> () | Some l -> iter_cells l f

let overlay_iter_out v id f =
  match Imap.find_opt id v.v_ov.o_out with None -> () | Some l -> iter_cells l f

let iter_log v ~from f =
  let ov = v.v_ov in
  if from < 0 || from > ov.o_count then invalid_arg "Disk_csr.iter_log: position out of range";
  for i = from to ov.o_count - 1 do
    let cell = ov.o_log.((2 * i) + 1) in
    f ov.o_log.(2 * i) (Csr.cell_label cell) (Csr.cell_node cell)
  done

let base v = v.v_base.csr

let selected_names v sel =
  let b = v.v_base and ov = v.v_ov in
  if Array.length sel <> n_nodes v then invalid_arg "Disk_csr.selected_names: selection size mismatch";
  if Array.length ov.order <> b.n then begin
    (* never written: no name order to walk *)
    let names = ref [] in
    for i = n_nodes v - 1 downto 0 do
      if sel.(i) then names := node_name v i :: !names
    done;
    List.sort String.compare !names
  end
  else begin
    (* merge the name order with the overlay's names (already in
       [String] order), back to front so the list builds in order *)
    let names = ref [] in
    let xs = ref (Seq.filter (fun (_, id) -> sel.(id)) (Smap.to_rev_seq ov.x_ids)) in
    let rec drain_after id =
      match !xs () with
      | Seq.Cons ((s, _), rest) when compare_base_name b id s < 0 ->
          names := s :: !names;
          xs := rest;
          drain_after id
      | _ -> ()
    in
    for k = b.n - 1 downto 0 do
      let id = ov.order.(k) in
      if sel.(id) then begin
        drain_after id;
        names := base_node_name b id :: !names
      end
    done;
    Seq.iter (fun (s, _) -> names := s :: !names) !xs;
    !names
  end

(* ------------------------------------------------------------------ *)
(* Live evaluations                                                    *)
(* ------------------------------------------------------------------ *)

let take_live v key =
  let tbl = v.v_live in
  Mutex.protect tbl.l_lock (fun () ->
      match List.find_opt (fun (k, _) -> String.equal k key) tbl.entries with
      | Some (_, e) when e.at <= v.v_ov.o_count ->
          tbl.entries <- List.filter (fun (k, _) -> not (String.equal k key)) tbl.entries;
          Some e
      | _ -> None)

let put_live v key e =
  let tbl = v.v_live in
  if (not (overlay_is_empty v)) && live_bytes e <= live_max_bytes then
    Mutex.protect tbl.l_lock (fun () ->
        let newer = List.exists (fun (k, x) -> String.equal k key && x.at > e.at) tbl.entries in
        if not newer then begin
          let rec keep count bytes = function
            | [] -> []
            | ((_, x) as entry) :: rest ->
                let bytes = bytes + live_bytes x in
                if count = live_max_entries || bytes > live_max_bytes then []
                else entry :: keep (count + 1) bytes rest
          in
          tbl.entries <-
            keep 0 0 ((key, e) :: List.filter (fun (k, _) -> not (String.equal k key)) tbl.entries)
        end)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let pack_stream ~path ~n_nodes:n ~n_edges:m ~node_name ~labels ~iter_edges =
  if n < 0 || n > Csr.max_nodes then invalid_arg "Disk_csr.pack_stream: node count out of range";
  if m < 0 then invalid_arg "Disk_csr.pack_stream: negative edge count";
  let nl = Array.length labels in
  if nl > Csr.max_labels then invalid_arg "Disk_csr.pack_stream: too many labels";
  let label_bytes = Array.fold_left (fun a s -> a + String.length s) 0 labels in
  let name_bytes = ref 0 in
  for v = 0 to n - 1 do
    name_bytes := !name_bytes + String.length (node_name v)
  done;
  let name_bytes = !name_bytes in
  let total = file_size n m nl ~label_bytes ~name_bytes in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* Shared write mapping: map_file extends the file to the mapped
         size; Csr.fill lays the adjacency sections out in place. *)
      let chars =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| total |])
      in
      let ints =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| total / word |])
      in
      ints.{0} <- magic_word;
      ints.{1} <- format_version;
      ints.{2} <- n;
      ints.{3} <- m;
      ints.{4} <- nl;
      ints.{5} <- label_bytes;
      ints.{6} <- name_bytes;
      ints.{7} <- 0;
      ignore
        (Csr.fill ~n_labels:nl
           ~out_off:(sub_ints ints (out_off_at n) (n + 1))
           ~in_off:(sub_ints ints (in_off_at n) (n + 1))
           ~out_cells:(sub_ints ints (out_cells_at n) m)
           ~in_cells:(sub_ints ints (in_cells_at n m) m)
           iter_edges);
      let label_off = sub_ints ints (label_off_at n m) (nl + 1) in
      let name_off = sub_ints ints (name_off_at n m nl) (n + 1) in
      (* String sections. *)
      let blob_at = ints_total n m nl * word in
      let cursor = ref blob_at in
      let emit s =
        String.iter
          (fun c ->
            chars.{!cursor} <- c;
            incr cursor)
          s
      in
      label_off.{0} <- 0;
      Array.iteri
        (fun l s ->
          emit s;
          label_off.{l + 1} <- !cursor - blob_at)
        labels;
      let name_base = !cursor in
      name_off.{0} <- 0;
      for v = 0 to n - 1 do
        emit (node_name v);
        name_off.{v + 1} <- !cursor - name_base
      done;
      (* Integrity trailer: CRC32 of the payload just written, read back
         through the shared mapping, then appended past it. *)
      let crc = Crc32.bigstring chars ~pos:0 ~len:total in
      let trailer = Bytes.create trailer_bytes in
      Bytes.blit_string trailer_magic 0 trailer 0 8;
      let u64_set off v =
        for i = 0 to 7 do
          Bytes.set trailer (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
        done
      in
      u64_set 8 total;
      u64_set 16 crc;
      ignore (Unix.lseek fd total Unix.SEEK_SET);
      let off = ref 0 in
      while !off < trailer_bytes do
        off := !off + Unix.write fd trailer !off (trailer_bytes - !off)
      done;
      Unix.fsync fd)

let pack_digraph g ~path =
  let labels = Array.init (Digraph.n_labels g) (Digraph.label_name g) in
  pack_stream ~path ~n_nodes:(Digraph.n_nodes g) ~n_edges:(Digraph.n_edges g)
    ~node_name:(Digraph.node_name g) ~labels ~iter_edges:(fun f ->
      Digraph.iter_edges (fun e -> f ~src:e.Digraph.src ~label:e.Digraph.lbl ~dst:e.Digraph.dst) g)

let to_digraph v =
  let g = Digraph.create () in
  let total = n_nodes v in
  for id = 0 to total - 1 do
    ignore (Digraph.add_node g (node_name v id))
  done;
  for l = 0 to n_labels v - 1 do
    ignore (Digraph.intern_label g (label_name v l))
  done;
  for src = 0 to total - 1 do
    let add lbl dst = Digraph.add_edge g ~src ~label:(label_name v lbl) ~dst in
    if src < v.v_base.n then Csr.iter_out v.v_base.csr src add;
    overlay_iter_out v src add
  done;
  g

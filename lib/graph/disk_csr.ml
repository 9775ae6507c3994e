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

let base_node_name b v =
  if v < 0 || v >= b.n then invalid_arg (Printf.sprintf "Disk_csr.node_name: node %d out of range" v);
  blob_string b.chars
    ~at:(b.name_blob_at + b.name_off.{v})
    ~len:(b.name_off.{v + 1} - b.name_off.{v})

(* ------------------------------------------------------------------ *)
(* Delta overlay                                                       *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

module Tset = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

type overlay = {
  o_count : int;
  o_out : (int * int) list Imap.t;  (* src -> (label, dst), newest first *)
  o_in : (int * int) list Imap.t;  (* dst -> (label, src), newest first *)
  o_set : Tset.t;
  x_names : string array;  (* overlay node names; id = base n + index *)
  x_ids : int Smap.t;  (* overlay node name -> absolute id *)
  x_labels : string array;  (* overlay label names; id = base nl + index *)
  x_label_ids : int Smap.t;
}

let empty_overlay =
  {
    o_count = 0;
    o_out = Imap.empty;
    o_in = Imap.empty;
    o_set = Tset.empty;
    x_names = [||];
    x_ids = Smap.empty;
    x_labels = [||];
    x_label_ids = Smap.empty;
  }

type t = {
  base : base;
  lock : Mutex.t;
  ov : overlay Atomic.t;
  mutable name_index : (string, int) Hashtbl.t option;
      (* base node name -> id; O(n) to build, so only on the first add_edges *)
}

let open_map path =
  match open_base path with
  | Error _ as e -> e
  | Ok base -> Ok { base; lock = Mutex.create (); ov = Atomic.make empty_overlay; name_index = None }

let path t = t.base.b_path
let base_nodes t = t.base.n
let base_edges t = Csr.n_edges t.base.csr
let base_labels t = t.base.nl
let file_bytes t = t.base.bytes_total
let has_trailer t = t.base.stored_crc <> None
let verify t = verify_base t.base
let overlay_edges t = (Atomic.get t.ov).o_count

(* Must hold t.lock. *)
let base_name_index t =
  match t.name_index with
  | Some h -> h
  | None ->
      let h = Hashtbl.create (max 16 t.base.n) in
      for v = 0 to t.base.n - 1 do
        let s = base_node_name t.base v in
        if not (Hashtbl.mem h s) then Hashtbl.add h s v
      done;
      t.name_index <- Some h;
      h

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
      let names = base_name_index t in
      let ov = Atomic.get t.ov in
      let x_ids = ref ov.x_ids and x_new = ref [] and x_count = ref (Array.length ov.x_names) in
      let x_label_ids = ref ov.x_label_ids
      and x_lnew = ref []
      and x_lcount = ref (Array.length ov.x_labels) in
      let node_id name =
        match Hashtbl.find_opt names name with
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
                incr x_lcount;
                x_lnew := name :: !x_lnew;
                x_label_ids := Smap.add name l !x_label_ids;
                l)
      in
      let o_out = ref ov.o_out
      and o_in = ref ov.o_in
      and o_set = ref ov.o_set
      and added = ref 0
      and touched = ref Smap.empty in
      List.iter
        (fun (src_n, lbl_n, dst_n) ->
          let src = node_id src_n and dst = node_id dst_n in
          let lbl = label_id lbl_n in
          let triple = (src, lbl, dst) in
          if (not (Tset.mem triple !o_set)) && not (base_has_edge b ~src ~lbl ~dst) then begin
            o_set := Tset.add triple !o_set;
            o_out :=
              Imap.update src
                (fun l -> Some ((lbl, dst) :: Option.value l ~default:[]))
                !o_out;
            o_in :=
              Imap.update dst
                (fun l -> Some ((lbl, src) :: Option.value l ~default:[]))
                !o_in;
            incr added;
            touched := Smap.add lbl_n () !touched
          end)
        triples;
      let appended old fresh = Array.append old (Array.of_list (List.rev fresh)) in
      let new_nodes = !x_count - Array.length ov.x_names in
      let ov' =
        {
          o_count = ov.o_count + !added;
          o_out = !o_out;
          o_in = !o_in;
          o_set = !o_set;
          x_names = appended ov.x_names !x_new;
          x_ids = !x_ids;
          x_labels = appended ov.x_labels !x_lnew;
          x_label_ids = !x_label_ids;
        }
      in
      Atomic.set t.ov ov';
      { added = !added; new_nodes; labels = List.map fst (Smap.bindings !touched) })

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type view = { v_base : base; v_ov : overlay }

let snapshot t = { v_base = t.base; v_ov = Atomic.get t.ov }
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

let overlay_iter_in v id f =
  match Imap.find_opt id v.v_ov.o_in with
  | None -> ()
  | Some l -> List.iter (fun (lbl, s) -> f lbl s) l

let overlay_iter_out v id f =
  match Imap.find_opt id v.v_ov.o_out with
  | None -> ()
  | Some l -> List.iter (fun (lbl, d) -> f lbl d) l

let base v = v.v_base.csr

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

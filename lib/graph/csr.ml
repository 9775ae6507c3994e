type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Every Bigarray read below goes through a record field or an [int_arr]
   binding: on a polymorphic Bigarray each read compiles to a C call. *)
type t = {
  n : int;
  m : int;
  n_labels : int;
  out_off : int_arr;  (* n + 1 *)
  in_off : int_arr;  (* n + 1 *)
  out_cells : int_arr;  (* m packed cells (label lsl node_bits) lor target *)
  in_cells : int_arr;  (* m packed cells (label lsl node_bits) lor source *)
}

let node_bits = 40
let node_mask = (1 lsl node_bits) - 1
let max_nodes = node_mask
let max_labels = 1 lsl (62 - node_bits)
let cell label node = (label lsl node_bits) lor node

let of_arrays ~n_labels ~out_off ~in_off ~out_cells ~in_cells =
  let dim = Bigarray.Array1.dim in
  let n = dim out_off - 1 and m = dim out_cells in
  if n < 0 || dim in_off <> n + 1 || dim in_cells <> m then
    invalid_arg "Csr.of_arrays: array lengths disagree";
  if n > max_nodes || n_labels < 0 || n_labels > max_labels then
    invalid_arg "Csr.of_arrays: sizes exceed the packed-cell split";
  { n; m; n_labels; out_off; in_off; out_cells; in_cells }

(* A 63-bit mix of one edge. Summed over a pass it fingerprints the
   pass's edge multiset, whatever its order. *)
let edge_hash ~src ~label ~dst =
  let h = (((src * 0x100000001b3) lxor label) * 0x100000001b3) lxor dst in
  let h = (h lxor (h lsr 29)) * 0x3c79ac492ba7b653 in
  h lxor (h lsr 32)

let fill ~n_labels ~out_off ~in_off ~out_cells ~in_cells iter_edges =
  let t = of_arrays ~n_labels ~out_off ~in_off ~out_cells ~in_cells in
  let { n; m; out_off; in_off; out_cells; in_cells; _ } = t in
  let check ~src ~label ~dst =
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg (Printf.sprintf "Csr.fill: edge endpoint out of range (%d,%d)" src dst);
    if label < 0 || label >= n_labels then
      invalid_arg (Printf.sprintf "Csr.fill: label %d out of range" label)
  in
  Bigarray.Array1.fill out_off 0;
  Bigarray.Array1.fill in_off 0;
  (* Pass 1: degree counts, then a prefix sum into offsets. *)
  let seen = ref 0 and hash1 = ref 0 in
  iter_edges (fun ~src ~label ~dst ->
      check ~src ~label ~dst;
      incr seen;
      hash1 := !hash1 + edge_hash ~src ~label ~dst;
      if !seen > m then invalid_arg "Csr.fill: stream longer than n_edges";
      out_off.{src + 1} <- out_off.{src + 1} + 1;
      in_off.{dst + 1} <- in_off.{dst + 1} + 1);
  if !seen <> m then invalid_arg "Csr.fill: stream shorter than n_edges";
  for v = 1 to n do
    out_off.{v} <- out_off.{v} + out_off.{v - 1};
    in_off.{v} <- in_off.{v} + in_off.{v - 1}
  done;
  (* Pass 2: fill, using the offset cells themselves as cursors —
     off.{v} walks from start(v) to end(v) — then shift them back
     down one slot to restore the offsets. No scratch arrays. *)
  let seen = ref 0 and hash2 = ref 0 in
  iter_edges (fun ~src ~label ~dst ->
      check ~src ~label ~dst;
      incr seen;
      hash2 := !hash2 + edge_hash ~src ~label ~dst;
      if !seen > m then invalid_arg "Csr.fill: pass 2 stream longer than pass 1";
      let o = out_off.{src} in
      out_off.{src} <- o + 1;
      if o >= m then invalid_arg "Csr.fill: pass 2 stream disagrees with pass 1";
      out_cells.{o} <- cell label dst;
      let i = in_off.{dst} in
      in_off.{dst} <- i + 1;
      if i >= m then invalid_arg "Csr.fill: pass 2 stream disagrees with pass 1";
      in_cells.{i} <- cell label src);
  if !seen <> m then invalid_arg "Csr.fill: pass 2 stream shorter than pass 1";
  if !hash2 <> !hash1 then invalid_arg "Csr.fill: pass 2 stream disagrees with pass 1";
  for v = n downto 1 do
    out_off.{v} <- out_off.{v - 1};
    in_off.{v} <- in_off.{v - 1}
  done;
  out_off.{0} <- 0;
  in_off.{0} <- 0;
  t

let freeze g =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let ints len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  fill ~n_labels:(Digraph.n_labels g) ~out_off:(ints (n + 1)) ~in_off:(ints (n + 1))
    ~out_cells:(ints m) ~in_cells:(ints m) (fun f ->
      Digraph.iter_edges (fun e -> f ~src:e.Digraph.src ~label:e.Digraph.lbl ~dst:e.Digraph.dst) g)

let n_nodes t = t.n
let n_edges t = t.m
let n_labels t = t.n_labels

let check t v name =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Csr.%s: node %d out of range" name v)

let out_off t = t.out_off
let in_off t = t.in_off
let out_cells t = t.out_cells
let in_cells t = t.in_cells
let cell_label c = c lsr node_bits
let cell_node c = c land node_mask

(* One range check per node covers its cell reads, so a mapped file
   with corrupted offsets raises instead of reading past its mapping. *)
let check_range (cells : int_arr) lo hi =
  if lo < 0 || hi > Bigarray.Array1.dim cells then invalid_arg "Csr: offsets out of range"

let scan (off : int_arr) (cells : int_arr) v f =
  let lo = off.{v} and hi = off.{v + 1} in
  check_range cells lo hi;
  for i = lo to hi - 1 do
    let c = Bigarray.Array1.unsafe_get cells i in
    f (cell_label c) (cell_node c)
  done

let iter_out t v f =
  check t v "iter_out";
  scan t.out_off t.out_cells v f

let iter_in t v f =
  check t v "iter_in";
  scan t.in_off t.in_cells v f

type t = { bits : Bytes.t; length : int }

let create length =
  if length < 0 then invalid_arg "Bitset.create: negative length";
  { bits = Bytes.make ((length + 7) lsr 3) '\000'; length }

let length t = t.length

let check t i name =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of range [0, %d)" name i t.length)

let mem t i =
  check t i "mem";
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i "set";
  let byte = i lsr 3 in
  let cur = Char.code (Bytes.unsafe_get t.bits byte) in
  Bytes.unsafe_set t.bits byte (Char.unsafe_chr (cur lor (1 lsl (i land 7))))

let test_and_set t i =
  check t i "test_and_set";
  let byte = i lsr 3 in
  let bit = 1 lsl (i land 7) in
  let cur = Char.code (Bytes.unsafe_get t.bits byte) in
  if cur land bit <> 0 then false
  else begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (cur lor bit));
    true
  end

let clear ?(below = max_int) t = Bytes.fill t.bits 0 ((min below t.length + 7) lsr 3) '\000'

let extend t n =
  if n <= t.length then t
  else begin
    let grown = create n in
    Bytes.blit t.bits 0 grown.bits 0 (Bytes.length t.bits);
    grown
  end

(* 8-bit popcount table: cardinal is a byte-table walk, not a per-bit loop. *)
let popcount8 =
  Array.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      go b 0)

let cardinal t =
  let total = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    total := !total + popcount8.(Char.code (Bytes.unsafe_get t.bits i))
  done;
  !total

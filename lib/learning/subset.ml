(* Open addressing over ids: [slots] holds the id of the set hashed
   there, or -1; [members] maps an id back to its elements. The load
   factor stays at or below 1/2. *)
type t = {
  mutable members : int array array;
  mutable count : int;
  mutable slots : int array;
}

let empty = 0

let hash a =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let slot_of slots members a =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let id = slots.(i) in
    if id < 0 || equal members.(id) a then i else probe ((i + 1) land mask)
  in
  probe (hash a land mask)

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  for id = 0 to t.count - 1 do
    slots.(slot_of slots t.members t.members.(id)) <- id
  done;
  t.slots <- slots

let intern t a =
  let i = slot_of t.slots t.members a in
  let id = t.slots.(i) in
  if id >= 0 then id
  else begin
    let id = t.count in
    if id = Array.length t.members then begin
      let members = Array.make (2 * id) [||] in
      Array.blit t.members 0 members 0 id;
      t.members <- members
    end;
    t.members.(id) <- a;
    t.count <- id + 1;
    t.slots.(i) <- id;
    if 2 * t.count > Array.length t.slots then rehash t;
    id
  end

let create () =
  let t = { members = Array.make 16 [||]; count = 0; slots = Array.make 32 (-1) } in
  ignore (intern t [||]);
  t

let copy t = { members = Array.copy t.members; count = t.count; slots = Array.copy t.slots }

let of_list t l = intern t (Array.of_list (List.sort_uniq Int.compare l))
let elements t id = t.members.(id)

let included t a b =
  a = b
  ||
  let xs = t.members.(a) and ys = t.members.(b) in
  let nx = Array.length xs and ny = Array.length ys in
  let rec go i j =
    i = nx
    || (j < ny && nx - i <= ny - j
       && if xs.(i) = ys.(j) then go (i + 1) (j + 1) else xs.(i) > ys.(j) && go i (j + 1))
  in
  go 0 0

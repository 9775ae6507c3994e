(** Interned node subsets.

    A subset of graph nodes is a sorted, duplicate-free [int array]. A
    table numbers the distinct subsets it has seen densely from 0, and 0
    is always the empty set, so a subset is compared, hashed and stored as
    one int. Two equal sets get the same id however they were built,
    which is what lets the witness search deduplicate its frontier pairs
    exactly and the interactive scorer key its memo by flat ints. *)

type t

val create : unit -> t
(** A fresh table holding only the empty set. *)

val empty : int
(** The id of the empty set, in every table. *)

val intern : t -> int array -> int
(** [intern t a] is the id of the set [a], added if new. [a] must be
    sorted and duplicate-free (not checked); the table keeps it, so it
    must not be mutated afterwards. *)

val of_list : t -> int list -> int
(** Like {!intern}, for any list (sorted and deduplicated first). *)

val elements : t -> int -> int array
(** The members of a set, ascending. Do not mutate the result. *)

val included : t -> int -> int -> bool
(** [included t a b]: is set [a] a subset of set [b]? *)

val copy : t -> t
(** A table with the same ids for the same sets, interning on its own
    from now on. It shares the member arrays, which never change. *)

(** Compact bit sets over dense integer ranges.

    The evaluation engine keeps one bit per product state — membership
    tables that were [bool array]s cost 8× the cache footprint of a
    packed bitset, and on the paper-scale graphs the packed table is the
    difference between staying cache-resident and not (see the
    [eval_scale] benchmark).

    A set packs 8 bits per byte into [Bytes]; single-threaded use only,
    no synchronization cost. *)

type t

val create : int -> t
(** [create n] is a set over indices [0 .. n-1], initially empty.
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int

val mem : t -> int -> bool
(** @raise Invalid_argument if the index is out of range (all ops). *)

val set : t -> int -> unit

val test_and_set : t -> int -> bool
(** [test_and_set b i] sets bit [i] and returns whether it was newly set
    ([false] if it was already present). This is the evaluation kernel's
    dedup primitive. *)

val clear : t -> unit
(** Reset every bit to 0 (the backing store is reused). *)

val cardinal : t -> int
(** Number of set bits. *)

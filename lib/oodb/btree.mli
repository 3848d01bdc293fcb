(** An in-memory B+-tree over {!Value.t} keys, multi-valued (each key maps
    to a set of OIDs, held inline while it is one: {!Postings}).

    Backs the substrate's {e ordered} secondary indexes: equality lookups
    like the hash index, plus range scans for the comparison predicates of
    {!Query}.  Keys are ordered by {!Value.compare} (numeric values compare
    across [Int]/[Float]).

    The implementation is a textbook B+-tree: values only in leaves, leaves
    doubly linked for range scans, node splitting on overflow and borrowing/
    merging on underflow.  [check_invariants] verifies structure and is
    exercised by the property tests. *)

type t

val create : ?order:int -> unit -> t
(** [order] is the maximum number of keys per node (default 16, minimum 4;
    smaller orders are useful in tests to force deep trees). *)

val of_pairs : ?order:int -> (Value.t * Oid.t) array -> t
(** A tree holding the pairs, built bottom-up in one pass: the array is
    sorted in place, then loaded into leaves filled to about 70% (the
    occupancy random inserts leave, so the first later insert does not
    split), and the internal levels are built over them the same way.  Keys
    equal under {!Value.compare} share one entry, keyed by the value paired
    with the lowest OID, as inserting the pairs in OID order would leave
    it. *)

val insert : t -> Value.t -> Oid.t -> unit
(** Idempotent per (key, oid) pair. *)

val remove : t -> Value.t -> Oid.t -> unit
(** Removes one (key, oid) pair; the key disappears when its last OID
    goes.  Unknown pairs are ignored. *)

val find : t -> Value.t -> Oid.t list
(** OIDs under exactly this key, in OID order. *)

val range :
  t ->
  ?lo:Value.t * bool ->
  ?hi:Value.t * bool ->
  unit ->
  (Value.t * Oid.t list) list
(** [range t ~lo:(v, inclusive) ~hi:(w, inclusive) ()] returns the keys in
    [lo..hi] in ascending order with their OIDs.  Omitting a bound leaves
    that side open. *)

val min_key : t -> Value.t option
val max_key : t -> Value.t option

val cardinal : t -> int
(** Number of (key, oid) pairs. *)

val key_count : t -> int
(** Number of distinct keys. *)

val height : t -> int
(** 1 for a single leaf. *)

val iter : t -> (Value.t -> Oid.t list -> unit) -> unit
(** Ascending key order. *)

val clear : t -> unit

val check_invariants : t -> (unit, string) result
(** Structural validation: key ordering, separator correctness, occupancy
    bounds, uniform leaf depth, leaf-chain consistency. *)

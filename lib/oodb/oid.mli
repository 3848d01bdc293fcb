(** Object identifiers.

    Every object stored in an {!Db.t} — including rule and event objects,
    which the paper treats as first-class citizens — is named by an OID that
    is unique within its database and never reused. *)

type t

val of_int : int -> t
(** [of_int n] builds the OID with raw value [n].  Intended for the
    persistence layer and tests; fresh OIDs come from object creation. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val sort : t array -> unit
(** Sort in place, ascending (a radix sort). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hashtables keyed by OID.  Consecutive OIDs hash to consecutive
    buckets, and OIDs allocated at a shard's stride still spread over all
    of them.  Iteration order follows the buckets and is unspecified: a walk
    whose order can be seen goes through {!sorted_keys}. *)
module Table : Hashtbl.S with type key = t

val sorted_keys : 'a Table.t -> t array
(** The table's keys in ascending order. *)

(** Sets of OIDs. *)
module Set : Set.S with type elt = t

(** The set of OIDs one secondary-index key maps to, in the hash index
    ({!Types.index_backing}) and in {!Btree} leaves.  A key with a single
    OID keeps it inline ([One]); the table ([Many]) exists only while the
    key has two OIDs or more. *)

type t = One of Oid.t | Many of unit Oid.Table.t

val cardinal : t -> int
val mem : t -> Oid.t -> bool

val add : t -> Oid.t -> t
(** The set with the OID added.  A [Many] is updated in place and returned
    as is; a [One] becomes a [Many] when the OID is new. *)

val remove : t -> Oid.t -> t option
(** The set without the OID, back to [One] when one OID is left; [None]
    when none is.  A [Many] is updated in place. *)

val iter : (Oid.t -> unit) -> t -> unit
(** In no particular order; {!to_list} for ascending. *)

val to_list : t -> Oid.t list
(** Ascending OID order. *)

val well_formed : t -> bool
(** A [Many] holds at least two OIDs. *)

open Import

(** Discrimination-indexed event routing.

    Instead of broadcasting each occurrence to every subscribed rule's
    detector (which re-tests every primitive leaf of every rule), the rule
    layer registers each detector's leaves here once.  A shared hashtable
    keyed by (method, modifier) then maps an occurrence straight to the
    candidate leaves across {e all} consumers, and only candidates pay the
    remaining per-leaf checks: class subsumption (a precomputed set of the
    declared class and its subclasses), source-OID restriction and
    parameter filters.  Matching leaves receive the occurrence through
    {!Detector.offer_leaf}.

    The class-derived sets — per-leaf subsumption and per-consumer
    class-subscription acceptance — are resolved lazily and cached, stamped
    with {!Db.schema_generation} / {!Db.class_sub_generation}; any class
    definition, schema evolution or (un)subscription (including rollback)
    invalidates them by bumping a stamp, costing one integer compare per
    probe in the steady state.

    Beyond indexing bare detectors it carries the full rule layer:
    subscription filtering, enable/disable lifecycle and temporal clock
    driving.

    Observable differences from broadcast delivery, by design: a consumer's
    [on_receive] fires only for occurrences whose (method, modifier) has a
    candidate leaf for it (plus every subscribed occurrence for temporal
    detectors and wildcard handlers), and detectors are not fed occurrences
    that cannot match any leaf — so {!Detector.fed} counts drop.  Detection
    outcomes — signalled instances, rule triggerings and firings — are
    identical; [test/test_differential.ml] checks that equivalence. *)

type t

type counters = {
  mutable candidates_probed : int;
      (** live bucket entries examined across all deliveries; tombstones
          are not counted *)
  mutable leaves_offered : int;
      (** candidates that passed every check and were offered *)
  mutable index_hits : int;  (** deliveries whose key had a bucket *)
  mutable batch_events : int;
      (** occurrences delivered through {!deliver_many} *)
  mutable coalesced_probes : int;
      (** index probes skipped by batch route-key coalescing: deliveries in
          a batch whose key's candidate list was already resolved *)
  mutable tombstones_skipped : int;
      (** entries of unregistered consumers that deliveries passed over
          before their bucket was rebuilt (see {!unregister}) *)
}

val create : Db.t -> t

val register :
  t ->
  consumer:Oid.t ->
  ?guard:(unit -> bool) ->
  on_receive:(Occurrence.t -> unit) ->
  Detector.t ->
  unit
(** Index every leaf of the detector under [consumer].  Re-registering the
    same consumer replaces its previous registration.  [guard] is consulted
    before anything is delivered (default: always true) — the rule layer
    uses it to cover rules whose object vanished (deleted, or creation
    rolled back).  [on_receive] fires at most once per delivered occurrence
    the consumer is subscribed to and is a candidate for — before any leaf
    is offered — and backs the rule's recorder and delivery statistics. *)

val register_wildcard :
  t -> consumer:Oid.t -> ?guard:(unit -> bool) -> (Occurrence.t -> unit) -> unit
(** Register a leafless consumer (an ad-hoc notifiable handler) that hears
    every occurrence it is subscribed to, whatever the method. *)

val unregister : t -> Oid.t -> unit
(** Drop the consumer's leaves (and/or wildcard handler) from the index.
    No-op for unknown consumers.

    Costs O(the consumer's own leaves), whatever the size of the buckets
    they sit in: each entry is marked dead (a tombstone) and its bucket's
    live and dead counts are updated, without walking the bucket.  A bucket
    left with no live entry leaves the index at once.  Tombstones are
    dropped when the bucket's ordered candidate list is next rebuilt: after
    any {!register} into that bucket, or once its tombstones outnumber its
    live entries.  Until then a delivery skips each tombstone with one flag
    test ({!counters}[.tombstones_skipped]); [candidates_probed] and
    {!leaf_count} count live entries only. *)

val registered : t -> Oid.t -> bool

val deliver : t -> Oodb.Types.obj -> Occurrence.t -> unit
(** Route one occurrence: wildcard handlers first, then clock advancement
    for subscribed temporal detectors, then the (method, modifier) bucket
    probe.  Wildcard handlers, and then temporal detectors, are called in
    ascending consumer OID; bucket candidates in registration order.
    Installed as the database's {!Db.set_route} hook. *)

val deliver_many : t -> (Oodb.Types.obj * Occurrence.t) list -> unit
(** Route a batch in order under one {!with_batch} scope: the
    discrimination index is probed once per {e distinct} (method, modifier)
    key in the batch and the resolved candidate list replayed for every
    occurrence in that key's group.  Delivery order, detector interleaving,
    firings and statistics (bar
    {!counters}[.batch_events]/[.coalesced_probes]) are identical to
    calling {!deliver} per pair.  One "route" trace span and one histogram
    sample cover the whole batch. *)

val with_batch : t -> (unit -> 'a) -> 'a
(** Open a route-key-coalescing scope around [f]: every delivery inside —
    however it interleaves with method execution and rule actions — shares
    one per-batch key memo, so the index is probed once per distinct key.
    Delivery points and ordering are untouched; a mid-batch
    (un)registration flushes the memo, keeping the scope observationally
    identical to unscoped delivery.  Reentrant (a nested scope reuses the
    outer memo); {!Db.send_many} runs under this via {!System.ingest}. *)

(** {1 Introspection} *)

val counters : t -> counters
val reset_counters : t -> unit

val leaf_count : t -> int
(** Live leaf entries currently indexed (tombstones excluded). *)

val reg_count : t -> int
(** Registered consumers (detectors plus wildcards). *)

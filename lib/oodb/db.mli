(** The object database: registration, object lifecycle, message dispatch
    with primitive-event generation, and the subscription mechanism.

    This is the Zeitgeist stand-in.  The rule layer ([Sentinel]) installs a
    delivery hook with {!set_notify}; the ADAM baseline instead installs a
    {!add_tap} tap that sees every occurrence, modelling centralized rule
    checking.  The substrate itself knows nothing about rules. *)

type t = Types.db

val create : unit -> t
(** An empty database. *)

(** {1 Schema} *)

val define_class : t -> Schema.t -> unit
(** Registers a class.  Checks: the name is fresh, the superclass (if any)
    exists, and every method named in the event interface resolves along the
    inheritance chain.  A class with a non-empty event interface must be
    reactive (directly or by inheritance).
    @raise Errors.Duplicate_class
    @raise Errors.No_such_class
    @raise Errors.No_such_method
    @raise Errors.Type_error *)

val classes : t -> string list
val has_class : t -> string -> bool

(** {1 Objects} *)

val new_object : t -> ?attrs:(string * Value.t) list -> string -> Oid.t
(** Instantiate a class.  Unlisted attributes take their declared defaults;
    listing an attribute the class does not declare is a
    {!Errors.No_such_attribute} error. *)

val configure_shard : t -> index:int -> of_:int -> unit
(** [configure_shard db ~index ~of_] partitions the OID space for an
    [of_]-way shard pool: this store allocates only OIDs congruent to
    [index mod of_], striding by [of_], so sibling shards' OID spaces are
    disjoint and [Oid.to_int oid mod of_] identifies the owning shard.  The
    stride is not persisted — call again after {!Wal.recover} (alignment
    resumes above whatever replay restored).  [index] must satisfy
    [0 <= index < of_].
    @raise Invalid_argument otherwise. *)

val delete_object : t -> Oid.t -> unit
val exists : t -> Oid.t -> bool
val class_of : t -> Oid.t -> string
val is_instance_of : t -> Oid.t -> string -> bool
(** True when the object's class equals or inherits from the given class. *)

val get : t -> Oid.t -> string -> Value.t
val get_opt : t -> Oid.t -> string -> Value.t option
val set : t -> Oid.t -> string -> Value.t -> unit
(** Direct attribute access.  [set] is undo-logged and index-maintained but
    generates no events: only message dispatch ({!send}) and explicit
    {!signal} generate events, exactly as in the paper where primitive
    events are method invocations. *)

val attrs : t -> Oid.t -> (string * Value.t) list

(** {1 Pre-resolved attribute slots}

    Hot paths that touch the same attribute for many objects (rule
    conditions, the Route index, query plans, workload inner loops) resolve
    the attribute once and then address the compiled slot directly,
    replacing a string hash per access with an integer compare. *)

type slot = Types.slot

val resolve : t -> string -> string -> slot
(** [resolve db cls attr] compiles [cls].[attr] into a slot handle.  Thanks
    to the subclass prefix invariant the handle is valid for every instance
    in [cls]'s deep extent.  Accessors validate the handle against the
    object's current layout and silently re-resolve by name when stale
    (schema evolution) or foreign (resolved against an unrelated class), so
    holding a handle is always safe — at worst it degrades to the string
    path.
    @raise Errors.No_such_class
    @raise Errors.No_such_attribute *)

val slot_get : t -> Oid.t -> slot -> Value.t
val slot_get_opt : t -> Oid.t -> slot -> Value.t option
val slot_set : t -> Oid.t -> slot -> Value.t -> unit
(** Same semantics (undo logging, index maintenance, absence errors) as the
    string-keyed {!get}/{!get_opt}/{!set}. *)

val iter_rev : ('a -> unit) -> 'a list -> unit
(** Iterate a newest-first list in subscription (oldest-first) order.
    Tail-safe: materializes the reversal, so arbitrarily long consumer and
    tap lists do not overflow the stack. *)

(** {1 Message dispatch and event generation} *)

val send : t -> Oid.t -> string -> Value.t list -> Value.t
(** [send db receiver m args] resolves [m] along the receiver's class chain
    and runs it.  When the effective event interface declares [m], a
    begin-of-method and/or end-of-method occurrence is generated and
    propagated: first to global taps, then to the receiver's subscribed
    consumers and to class-level consumers of the receiver's class and its
    ancestors (each distinct consumer is notified once per occurrence). *)

val send_many : t -> (Oid.t * string * Value.t list) list -> Value.t list
(** Vectorized {!send}: run each [(receiver, m, args)] of the batch in
    order and return the results in order.  Observationally equivalent to N
    sequential sends — each event still generates and delivers its
    begin/end occurrences at exactly the same points relative to method
    execution — but the batch pays one observability envelope (one
    "send_many" cascade span all the events' cascades nest under, one
    histogram sample, per-event "send" spans sampled 1-in-16) instead of N.
    An exception aborts the remainder of the batch and propagates; pair
    with {!Transaction.atomically} (as {!System.ingest} does) for
    all-or-nothing ingestion. *)

val signal :
  t -> source:Oid.t -> meth:string -> modifier:Types.modifier -> Value.t list -> unit
(** Explicitly generate a primitive event from inside a method body (paper
    footnote 3: "the class designer can also explicitly generate other
    primitive events, within the body of the method"). *)

(** {1 Subscription (paper §3.5, §4.1)} *)

val subscribe : t -> reactive:Oid.t -> consumer:Oid.t -> unit
(** Append [consumer] to the reactive object's consumers list (idempotent).
    Undo-logged. *)

val unsubscribe : t -> reactive:Oid.t -> consumer:Oid.t -> unit
val consumers_of : t -> Oid.t -> Oid.t list

val subscribe_class : t -> cls:string -> consumer:Oid.t -> unit
(** Class-level subscription: the consumer hears events from every instance
    of [cls] and its subclasses — the mechanism behind class-level rules. *)

val unsubscribe_class : t -> cls:string -> consumer:Oid.t -> unit
val class_consumers_of : t -> string -> Oid.t list

val unsubscribe_all : t -> consumer:Oid.t -> unit
(** Remove [consumer] from the consumers list of every live object and of
    every class it is on, as ordinary {!unsubscribe}/{!unsubscribe_class}
    calls: undo-logged and journaled, so a rollback restores them and WAL
    replay reaches the same state.  Finds its instance subscriptions through
    a reverse index rather than a heap scan. *)

val set_notify : t -> (t -> consumer:Oid.t -> Types.occurrence -> unit) -> unit
(** Install the delivery hook used for subscribed consumers. *)

val set_route : t -> (t -> Types.obj -> Types.occurrence -> unit) option -> unit
(** Install (or clear, with [None]) a whole-occurrence routing hook.  When
    set, {!deliver} hands each occurrence to the hook exactly once — with the
    source object, so the hook can consult its subscription lists — instead
    of fanning out per subscribed consumer.  The rule layer uses this to
    route through a shared predicate index ({!Events.Route}); taps still see
    every occurrence first. *)

val schema_generation : t -> int
(** Monotone counter bumped by {!define_class} and by {!Evolution} DDL.
    Caches derived from the class hierarchy (e.g. precomputed subsumption
    sets) compare stamps instead of subscribing to change notifications. *)

val class_sub_generation : t -> int
(** Monotone counter bumped whenever any class-level subscription changes,
    including restoration by transaction rollback. *)

val add_tap : t -> (t -> Types.occurrence -> unit) -> unit
(** Register a centralized listener that receives every occurrence. *)

val clear_taps : t -> unit

(** {1 Extents, indexes} *)

val subclasses : t -> string -> string list
(** The class itself plus every class inheriting from it (unsorted).
    Returns [[]] for undefined classes. *)

val extent : t -> ?deep:bool -> string -> Oid.t list
(** Instances of a class; [~deep:true] (default) includes subclasses. *)

val create_index :
  t -> ?kind:[ `Hash | `Ordered ] -> cls:string -> attr:string -> unit -> unit
(** Secondary index over [attr] for instances of [cls] and its subclasses,
    maintained by every subsequent mutation.  [`Hash] (default) serves
    equality probes; [`Ordered] is a B+-tree ({!Btree}) that additionally
    serves range scans.  Idempotent per (class, attribute).  The index is
    built in one pass over the extents (an ordered one by sorting its pairs
    and loading the tree bottom-up); snapshot loads and WAL replay build
    their indexes through here. *)

val drop_index : t -> cls:string -> attr:string -> unit

val index_lookup : t -> cls:string -> attr:string -> Value.t -> Oid.t list
(** Equality probe (either kind).
    @raise Errors.Type_error when no such index exists. *)

val index_range :
  t ->
  cls:string ->
  attr:string ->
  ?lo:Value.t * bool ->
  ?hi:Value.t * bool ->
  unit ->
  Oid.t list
(** Range probe over an ordered index; bounds are [(value, inclusive)].
    @raise Errors.Type_error when the index is missing or hash-backed. *)

val index_pairs : t -> cls:string -> attr:string -> (Value.t * Oid.t) list
(** Every (key, OID) pair the index holds, ordered by key ({!Value.compare})
    then OID, whatever the index's kind or representation.
    @raise Errors.Type_error when no such index exists. *)

val has_index : t -> cls:string -> attr:string -> bool
val index_kind : t -> cls:string -> attr:string -> [ `Hash | `Ordered ] option

(** {1 Clock and statistics} *)

val now : t -> Types.timestamp
val tick : t -> Types.timestamp
(** Advance the logical clock and return the new timestamp. *)

val advance_clock : t -> Types.timestamp -> unit
(** Move the logical clock forward to at least the given instant (earlier
    instants are ignored).  Used to drive temporal (periodic/relative)
    events without generating occurrences. *)

val stats : t -> Types.stats
val reset_stats : t -> unit

(**/**)

val compute_info : t -> Types.class_def -> Types.class_info
(** Internal: used by {!Evolution} to refresh flattened class caches. *)

val bump_schema_gen : t -> unit
(** Internal: {!Evolution} invalidates schema-derived caches after DDL. *)

(**/**)

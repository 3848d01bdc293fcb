(* The mutually recursive heart of the substrate: databases, class
   definitions (whose method implementations receive the database), open
   transactions and undo records.  Higher-level modules (Schema, Transaction,
   Db, Index) each expose one facet of these types; they live together here
   because OCaml requires recursive types to be declared in one place. *)

type timestamp = int

type modifier = Before | After

(* One entry of a class's event interface: which primitive events a method
   generates when invoked (paper §3.1: "event begin", "event end",
   "event begin && end"). *)
type interface_entry = { on_begin : bool; on_end : bool }

(* A generated primitive event (paper §3.1):
   "Generated primitive event = Oid + Class + Method + Actual parameters +
    Time stamp".
   The interned [class_sym]/[meth_sym] pair rides along with the strings so
   downstream consumers (Events.Route discrimination keys, Detector leaf
   matching) compare ints on the per-event path; the strings remain the
   source of truth for printing and serialization. *)
type occurrence = {
  source : Oid.t;
  source_class : string; (* runtime class of the generating object *)
  class_sym : Symbol.t;
  meth : string;
  meth_sym : Symbol.t;
  modifier : modifier;
  params : Value.t list;
  at : timestamp;
}

(* A pre-resolved attribute handle (Db.resolve).  [sl_index] is the slot the
   attribute occupied in the layout it was resolved against; accessors
   validate it with one array read ([ly_syms.(sl_index) = sl_sym]) and fall
   back to re-resolution by name, so a handle survives schema evolution and
   works across classes thanks to the subclass prefix invariant. *)
type slot = { sl_name : string; sl_sym : Symbol.t; sl_index : int }

(* The "attribute is not stored" slot marker.  Attributes can be
   legitimately absent (snapshot predating an add_attribute, undo of a
   backfill, remove_attribute mid-flight), and [Db.get_opt] must tell
   absence apart from a stored [Null].  Compare with [==] only; the
   sentinel is never indexed, never persisted and never escapes through the
   public API. *)
let absent : Value.t = Value.Str "\000<absent>\000"

type method_def = { mname : string; impl : db -> Oid.t -> Value.t list -> Value.t }

and class_def = {
  cname : string;
  super : string option;
  (* These three are mutable to support runtime schema evolution
     (Evolution.add_attribute / add_method / add_event_generator). *)
  mutable attr_spec : (string * Value.t) list; (* attribute name, default *)
  methods : (string, method_def) Hashtbl.t;
  interface : (string, interface_entry) Hashtbl.t;
  mutable reactive : bool; (* passive classes skip all event machinery *)
}

and undo =
  | U_set_attr of Oid.t * string * Value.t option (* None: attr was absent *)
  | U_created of Oid.t
  | U_deleted of obj (* restore this object wholesale *)
  | U_consumers of Oid.t * Oid.t list
  | U_class_consumers of string * Oid.t list
  | U_runtime of (unit -> unit)
      (* Run on abort: lets runtime caches that shadow persistent state
         (the rule scheduler's breaker flags, dead-letter cache, pending
         queue) roll back alongside the attribute writes they mirror.
         Never serialized — the undo log is in-memory only. *)

and txn = {
  mutable log : undo list; (* newest first *)
  (* Work queued by the rule scheduler for this transaction's boundary:
     deferred rules run just before commit, detached ones just after. *)
  mutable deferred : (unit -> unit) list; (* newest first *)
  mutable detached : (unit -> unit) list;
  txn_id : int;
}

and index = { ix_class : string; mutable ix_attr : string; ix_backing : index_backing }

(* Hash indexes serve equality probes; ordered (B+-tree) indexes add range
   scans for comparison predicates.  Both map a key to its OIDs as
   Postings, inline while the key has one. *)
and index_backing =
  | Ix_hash of (Value.t, Postings.t) Hashtbl.t
  | Ix_ordered of Btree.t

(* The compiled slot layout of one class: attribute [i] of an instance lives
   at [slots.(i)].  Slot order is Schema.all_attrs order — root-declared
   attributes first — which makes a subclass layout a prefix-compatible
   extension of its superclass's: a slot index resolved against class C is
   valid for every instance in C's deep extent. *)
and layout = {
  ly_class : string;
  ly_class_sym : Symbol.t;
  ly_names : string array; (* slot -> attribute name *)
  ly_syms : Symbol.t array; (* slot -> interned name *)
  ly_defaults : Value.t array; (* slot -> declared default *)
  ly_by_name : (string, int) Hashtbl.t; (* name -> slot *)
  ly_by_sym : (Symbol.t, int) Hashtbl.t; (* symbol -> slot *)
  (* Per-slot covering-index lists, so the set hot path skips the ancestry
     walk + hashtable probes of Heap.covering_indexes.  Rebuilt lazily when
     the stamp trails db.index_gen. *)
  mutable ly_ix_stamp : int;
  ly_covering : index list array;
  (* some slot has a covering index: object insert/remove skip the slot
     walk when not; refreshed with [ly_covering] *)
  mutable ly_covered : bool;
}

(* One consumer's subscriptions: the live objects whose [consumers] list
   holds it, and the classes whose class-level list does. *)
and subscriptions = {
  sb_objects : unit Oid.Table.t;
  mutable sb_classes : string list;
}

and obj = {
  id : Oid.t;
  mutable cls : string;
  (* The flattened class cache, denormalized onto the instance so dispatch
     and slot access skip the class_info hashtable probe.  Evolution keeps
     it fresh (Heap.migrate_obj) when it replaces a class's info. *)
  mutable info : class_info;
  (* Attribute storage: a flat value array indexed by the class layout;
     [absent] marks an attribute that is not stored. *)
  mutable store : Value.t array;
  (* The paper's Reactive::consumers data member: notifiable objects that
     subscribed to this instance's events.  Stored newest-first so subscribe
     is O(1); subscription order is recovered by reversing. *)
  mutable consumers : Oid.t list;
  mutable alive : bool;
  (* Dirty-tracking epoch stamp for incremental checkpoints: when it equals
     [db.ckpt_gen] the object is already dirty, so the mutation hot
     path pays one load+compare instead of a hashtable write per set.  0 on
     freshly built objects (no epoch ever matches). *)
  mutable dirty_gen : int;
}

(* One method as seen by Db.send: implementation, effective event-interface
   entry and interned name resolved together, so dispatch costs a single
   hashtable probe. *)
and dispatch_entry = {
  de_method : method_def;
  de_iface : interface_entry option;
  de_sym : Symbol.t;
}

(* Flattened, inheritance-resolved view of a class, computed once at
   registration time so that the dispatch hot path (Db.send) does not walk
   the superclass chain per message. *)
and class_info = {
  ri_reactive : bool;
  ri_ancestry : string list; (* class first, root last *)
  ri_iface : (string, interface_entry) Hashtbl.t;
  ri_layout : layout;
  ri_dispatch : (string, dispatch_entry) Hashtbl.t;
  (* The class's direct extent — the db.extents entry, which is created
     once per class name and never replaced — so object insert/remove skip
     the by-name lookup. *)
  ri_extent : unit Oid.Table.t;
}

(* Logical mutations, as reported to an attached journal (Wal).  These are
   pure data — no code — so a log of them can be replayed into a fresh
   database to reconstruct state (methods and rule code re-bind from the
   registered classes and the function registry, as with Persist).
   Attribute and class names are carried as strings: symbol ids are
   process-local and never reach the disk. *)
and mutation =
  | M_create of Oid.t * string * (string * Value.t) list
  | M_delete of Oid.t
  | M_set of Oid.t * string * Value.t
  | M_subscribe of Oid.t * Oid.t (* reactive, consumer *)
  | M_unsubscribe of Oid.t * Oid.t
  | M_subscribe_class of string * Oid.t
  | M_unsubscribe_class of string * Oid.t
  | M_create_index of string * string * bool (* ordered? *)
  | M_drop_index of string * string
  | M_clock of timestamp

and journal_event =
  | J_mutation of mutation
  | J_begin (* a transaction opened (any nesting level) *)
  | J_commit_inner (* an inner transaction merged into its parent *)
  | J_commit (* the outermost transaction committed *)
  | J_abort (* the innermost open transaction rolled back *)

and stats = {
  mutable sends : int; (* messages dispatched *)
  mutable events_generated : int; (* primitive occurrences raised *)
  mutable notifications : int; (* consumer deliveries *)
  mutable txns_committed : int;
  mutable txns_aborted : int;
  (* Durability counters, maintained by Wal and Persist. *)
  mutable wal_batches_replayed : int;
  mutable wal_batches_discarded : int; (* torn or corrupt batches dropped *)
  mutable wal_checksum_failures : int;
  mutable wal_fsyncs : int;
  (* Durability-path sizing and group-commit visibility (PR 6). *)
  mutable wal_bytes : int; (* current WAL file length, maintained by Wal *)
  mutable snapshot_bytes : int; (* size of the last full snapshot written *)
  mutable group_commit_batches : int; (* batches sealed by the coordinator *)
  mutable delta_checkpoints : int; (* incremental checkpoints taken *)
}

and db = {
  mutable next_oid : int;
  (* OID allocation stride, 1 for an unsharded store.  A shard member of an
     N-way pool allocates every N-th OID (next_oid ≡ shard index mod N), so
     OID spaces of sibling shards are disjoint and [oid mod N] recovers the
     owner — the shard-routing invariant.  See Db.configure_shard. *)
  mutable oid_stride : int;
  mutable now : timestamp;
  mutable next_txn_id : int;
  (* Highest WAL batch sequence number already reflected in this store's
     state.  Written into snapshots (Persist `walseq`) and consulted by
     Wal.replay, so replaying a log that predates the loaded snapshot can
     skip the batches the snapshot already contains instead of
     double-applying them (the checkpoint-crash window). *)
  mutable wal_applied_seq : int;
  (* WAL sequence number covered by the last durable snapshot artifact (base
     snapshot or delta-chain element).  The next delta checkpoint chains from
     here (`prev` header), and Wal.recover validates each chain link against
     it.  0 until a snapshot is saved or loaded. *)
  mutable snapshot_seq : int;
  (* Objects created or mutated since the last snapshot artifact, keyed by
     OID — the working set an incremental checkpoint persists.  Cleared by
     Persist.save / save_delta / load (each establishes a new baseline).
     Empty while the store has no baseline ([ckpt_gen] = 1): every live
     object is dirty then, and Persist.write_delta walks [objects]. *)
  dirty : unit Oid.Table.t;
  (* Objects deleted since the last snapshot artifact: a delta records them
     as explicit `del` entries so recovery removes them from the base. *)
  dirty_dead : unit Oid.Table.t;
  (* Dirty-epoch counter, bumped whenever [dirty] is cleared; see
     [obj.dirty_gen]. Starts at 1 so a fresh object's 0 stamp never matches. *)
  mutable ckpt_gen : int;
  objects : obj Oid.Table.t;
  classes : (string, class_def) Hashtbl.t;
  extents : (string, unit Oid.Table.t) Hashtbl.t; (* direct extent per class *)
  class_info : (string, class_info) Hashtbl.t;
  (* Consumers subscribed at the class level (class-level rules apply to all
     instances, paper §4.7).  Stored newest-first; subscription order is
     recovered by reversing (Db.class_consumers_of). *)
  class_consumers : (string, Oid.t list) Hashtbl.t;
  (* The reverse of [obj.consumers] and [class_consumers]: consumer -> what
     it is subscribed to.  Kept by Heap (object insert/remove, snapshot
     loads) and Db.(un)subscribe*, undo included, so retiring a consumer
     (Db.unsubscribe_all) visits only its own subscriptions. *)
  subscriptions : subscriptions Oid.Table.t;
  indexes : (string * string, index) Hashtbl.t;
  mutable txns : txn list; (* stack, innermost first *)
  (* Delivery hook installed by the rule layer: called once per (occurrence,
     subscribed consumer).  The substrate stays rule-agnostic. *)
  mutable notify : db -> consumer:Oid.t -> occurrence -> unit;
  (* Whole-occurrence routing hook (Events.Route): when set, Db.deliver hands
     each occurrence here once instead of fanning out per consumer, so the
     rule layer can consult its predicate index.  The substrate still stays
     rule-agnostic: the hook sees only the source object and the occurrence. *)
  mutable route : (db -> obj -> occurrence -> unit) option;
  (* Global taps receive *every* occurrence regardless of subscription; this
     is the centralized dispatch the ADAM baseline uses.  Newest-first. *)
  mutable taps : (db -> occurrence -> unit) list;
  (* Journal hook installed by Wal.attach; None = no journaling. *)
  mutable on_journal : (journal_event -> unit) option;
  (* Invalidation stamps for caches derived from the schema (class
     subsumption sets) and from class-level subscriptions.  Bumped on
     define_class / Evolution DDL and on (un)subscribe_class — including
     transaction rollback of the latter. *)
  mutable schema_gen : int;
  mutable class_sub_gen : int;
  (* Bumped on create_index / drop_index; layouts compare it to refresh
     their per-slot covering-index caches. *)
  mutable index_gen : int;
  (* Reusable scratch tables for Db.deliver's per-event consumer dedup; a
     pool (not a single table) because rule actions can re-enter deliver. *)
  mutable deliver_scratch : unit Oid.Table.t list;
  stats : stats;
}

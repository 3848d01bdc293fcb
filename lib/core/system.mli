open Import

(** The Sentinel rule system over one database.

    [System.create db] installs the delivery hook for subscribed consumers
    and registers the Notifiable/Event/Rule classes; thereafter:

    - rules and events are created at runtime as first-class objects
      ({!create_rule}, {!create_event}), enabled/disabled/deleted like any
      object, and persist with the database;
    - a rule monitors objects through the subscription mechanism — either
      specific instances, possibly of different classes (instance-level
      rules, paper §4.7), or whole classes (class-level rules);
    - detected events run the rule's condition and action under its coupling
      mode, ordered by the pluggable conflict-resolution {!Scheduler.strategy};
    - after {!Oodb.Persist.load}, {!rehydrate} re-links the stored rules to
      their registered condition/action functions and rebuilds detectors. *)

type t

type execution_outcome =
  | Fired  (** condition held, action completed *)
  | Condition_false
  | Aborted of string  (** the action raised [Rule_abort] *)
  | Action_error of exn
      (** the action raised and the rule's policy is [Propagate] *)
  | Contained of exn
      (** the action raised; the failure was contained (dead-lettered) and
          execution of the surrounding batch/transaction continued.  The
          firing ran in a nested transaction of its own, so any partial
          writes the failed condition/action made were rolled back before
          the dead letter was recorded *)
  | Quarantined of exn
      (** as [Contained], and this failure tripped the rule's [Quarantine]
          circuit breaker: the rule is now out of service until
          {!reinstate} *)

type routing =
  | Indexed
      (** Deliver through the shared discrimination index
          ({!Events.Route}): an occurrence's (method, modifier) maps
          straight to the candidate detector leaves across all rules.  The
          default. *)
  | Broadcast
      (** Legacy path: fan each occurrence out to every subscribed
          consumer, each rule's detector re-testing all of its leaves. *)

type sys_stats = {
  mutable dispatched : int;  (** occurrences delivered to consumers *)
  mutable conditions_checked : int;
  mutable actions_executed : int;
  mutable rule_aborts : int;  (** actions that raised [Rule_abort] *)
  mutable candidates_probed : int;
      (** indexed routing: candidate leaves examined *)
  mutable leaves_offered : int;
      (** indexed routing: candidates that passed every check *)
  mutable index_hits : int;
      (** indexed routing: deliveries whose key had candidates *)
  mutable batch_events : int;
      (** indexed routing: occurrences delivered under a batch
          (route-key-coalescing) scope *)
  mutable coalesced_probes : int;
      (** indexed routing: index probes skipped because the key's candidate
          list was already resolved earlier in the same batch *)
  mutable wal_batches_replayed : int;
      (** recovery: committed batches re-applied by {!Oodb.Wal.replay} *)
  mutable wal_batches_discarded : int;
      (** recovery: torn/corrupt batches (and their successors) dropped *)
  mutable wal_checksum_failures : int;
      (** recovery: batches rejected by the CRC-32 check *)
  mutable wal_fsyncs : int;  (** durability: fsyncs issued by WAL/snapshot *)
  mutable wal_bytes : int;  (** durability: current WAL file length (gauge) *)
  mutable snapshot_bytes : int;
      (** durability: size of the last full snapshot written or loaded *)
  mutable group_commit_batches : int;
      (** durability: groups sealed by the commit coordinator *)
  mutable delta_checkpoints : int;
      (** durability: incremental checkpoints taken *)
  mutable contained_failures : int;
      (** failed firings absorbed by a [Contain]/[Quarantine] policy *)
  mutable quarantined_rules : int;
      (** rules currently out of service with a tripped breaker (gauge) *)
  mutable dead_letters : int;  (** dead letters currently queued (gauge) *)
  mutable retries : int;  (** detached re-attempts after a failed attempt *)
  mutable traces_started : int;
      (** observability: cascade traces begun since {!Obs.Trace.clear}
          (process-wide; 0 while tracing is disabled) *)
  mutable spans_recorded : int;
      (** observability: spans pushed to the trace ring (process-wide) *)
}

val create :
  ?strategy:Scheduler.strategy ->
  ?cascade_limit:int ->
  ?routing:routing ->
  ?failure_log_limit:int ->
  ?dead_letter_limit:int ->
  ?retry_backoff:(int -> unit) ->
  Db.t ->
  t
(** [cascade_limit] (default 64) bounds immediate-rule recursion depth:
    actions that send messages can trigger further rules; exceeding the
    limit raises {!Errors.Rule_abort}.  [routing] (default {!Indexed})
    selects the event-delivery path; see {!routing} and
    [test/test_differential.ml] for the equivalence the two paths keep.
    [failure_log_limit] (default 128) caps the in-memory failure ring
    buffer behind {!recent_failures}; [dead_letter_limit] (default 256,
    minimum 1) caps the persistent dead-letter queue, evicting oldest
    first.  [retry_backoff] is called between detached retry attempts with
    the 1-based attempt number just failed; the default
    ({!Error_policy.jittered_backoff}) sleeps a jittered exponential gap —
    uniform in [m/2, m] for [m] doubling from 2ms, capped at 32ms — so mass
    failures spread their retries instead of hitting the recovering
    dependency in lockstep.  Beware that detached
    firings run synchronously at the outermost commit point, so the
    backoff {e blocks the committing caller} for the whole backoff sum of
    a persistently failing rule (e.g. ~62ms at [max_retries:5]) — pass
    [(fun _ -> ())] (as the tests and benches do) or your own
    scheduler-friendly delay where commit latency matters. *)

val routing : t -> routing

val route_index : t -> Events.Route.t option
(** The shared index when routing is {!Indexed}; exposed for tests and
    introspection. *)

val db : t -> Db.t
val registry : t -> Function_registry.t

val register_condition : t -> string -> Function_registry.condition -> unit

val register_action :
  ?may_send:(string * Oodb.Types.modifier) list ->
  t ->
  string ->
  Function_registry.action ->
  unit
(** [may_send] feeds the static triggering-graph analysis; see
    {!Function_registry.register_action}. *)

val unregister_action : t -> string -> unit
(** {!Function_registry.unregister_action} on this system's registry. *)

(** {1 Event objects} *)

val create_event : t -> ?name:string -> Expr.t -> Oid.t
(** Store an event expression as a first-class event object. *)

val event_expr : t -> Oid.t -> Expr.t
(** @raise Errors.Type_error when the OID is not an event object. *)

(** {1 Rules} *)

val create_rule :
  t ->
  ?name:string ->
  ?coupling:Coupling.t ->
  ?context:Context.t ->
  ?priority:int ->
  ?enabled:bool ->
  ?policy:Error_policy.t ->
  ?max_retries:int ->
  ?monitor:Oid.t list ->
  ?monitor_classes:string list ->
  event:Expr.t ->
  condition:string ->
  action:string ->
  unit ->
  Oid.t
(** Create a rule object and its runtime.  [condition]/[action] name
    registered functions (checked immediately).  [monitor] subscribes the
    rule to specific reactive instances and [monitor_classes] to whole
    classes; both can also be done later with {!subscribe} /
    {!subscribe_class}.  Higher [priority] (default 0) runs first under the
    priority strategies.  [policy] (default {!Error_policy.Propagate})
    governs what a failed firing does to its surroundings — see
    {!Error_policy}; [max_retries] (default 0) bounds re-attempts of failed
    detached firings.  The object and its subscriptions are made in one
    transaction, its own when none is open, so with a WAL attached a crash
    leaves the rule either absent or fully subscribed. *)

val create_rule_on :
  t ->
  ?name:string ->
  ?coupling:Coupling.t ->
  ?context:Context.t ->
  ?priority:int ->
  ?enabled:bool ->
  ?policy:Error_policy.t ->
  ?max_retries:int ->
  ?monitor:Oid.t list ->
  ?monitor_classes:string list ->
  event_obj:Oid.t ->
  condition:string ->
  action:string ->
  unit ->
  Oid.t
(** Like {!create_rule} but the event comes from a stored event object,
    recorded as the rule's [event_ref]. *)

val subscribe : t -> rule:Oid.t -> to_:Oid.t -> unit
val unsubscribe : t -> rule:Oid.t -> from:Oid.t -> unit
val subscribe_class : t -> rule:Oid.t -> cls:string -> unit
val unsubscribe_class : t -> rule:Oid.t -> cls:string -> unit

val enable : t -> Oid.t -> unit
val disable : t -> Oid.t -> unit
(** A disabled rule neither records nor detects; partial detector state is
    kept and detection resumes on {!enable}. *)

val reinstate : t -> Oid.t -> unit
(** Close a tripped [Quarantine] circuit breaker: clear the quarantine flag
    and failure streak (in memory and on the rule object) and put the rule
    back in service.  The breaker only opens again after a fresh run of [n]
    consecutive failures.  Harmless on rules that are not quarantined.
    @raise Errors.Type_error for OIDs without a rule runtime. *)

val delete_rule : t -> Oid.t -> unit
(** Remove the rule object, its runtime and every instance- and class-level
    subscription it holds ({!Db.unsubscribe_all}), in one transaction (its
    own when none is open): a rollback restores all three, and a crash
    leaves the rule either whole or gone. *)

val set_priority : t -> Oid.t -> int -> unit

val rules : t -> Oid.t list
val find_rule : t -> string -> Oid.t option
(** Look a rule up by name (first match). *)

val rule_info : t -> Oid.t -> Rule.t
(** Runtime record (detector counters, recorder, firing counts).
    @raise Errors.Type_error for OIDs without a rule runtime. *)

(** {1 Ad-hoc notifiable objects}

    Arbitrary application objects can consume events (the paper's
    Figure 2): the handler runs for each delivered occurrence.  Handlers
    are runtime-only: after a reload the object persists but is inert until
    a handler is attached again with {!attach_handler}. *)

val create_notifiable : t -> ?name:string -> (Occurrence.t -> unit) -> Oid.t
val attach_handler : t -> Oid.t -> (Occurrence.t -> unit) -> unit

(** {1 Time, persistence, control} *)

val expire_partial_state : t -> max_age:int -> unit
(** Drop, in every rule's detector, buffered partial composite-event state
    whose newest constituent is more than [max_age] logical time units old
    (see {!Events.Detector.expire}).  Call periodically in long-running
    systems to bound memory. *)

val advance_time : t -> int -> unit
(** Advance the logical clock (see {!Db.advance_clock}) and let every
    enabled rule's detector fire due periodic/relative events, rule by rule
    in ascending OID (creation) order. *)

val ingest :
  t -> (Oid.t * string * Oodb.Value.t list) list -> (Oodb.Value.t list, exn) result
(** Batched ingestion: run the whole occurrence batch under {e one}
    transaction scope, {e one} cascade trace and {e one} route-key-coalescing
    scope ({!Events.Route.with_batch}).  Events execute in batch order with
    exactly the per-event semantics of {!Db.send} — same firings, audit
    entries and detector states as N sequential sends inside one
    transaction; the batch amortizes the fixed costs (transaction
    bookkeeping, WAL commit, trace spans, discrimination-index probes — one
    per distinct route key instead of one per event).  Deferred firings
    drain at the batch transaction's commit; detached ones run after it.
    An uncontained mid-batch failure aborts and rolls back the whole batch
    ([Error]); failures of rules with a [Contain]/[Quarantine] policy are
    dead-lettered per rule and leave the rest of the batch intact, exactly
    as on the sequential path.  Composes with {!attach_wal}
    [~group_commit] for streaming durability. *)

val prune_runtimes : t -> unit
(** Drop runtimes whose rule object no longer exists (e.g. rule creation
    rolled back by an aborted transaction).  Stale runtimes are harmless —
    delivery checks object existence — but this reclaims them. *)

val rehydrate : t -> unit
(** Rebuild rule runtimes for every stored rule object lacking one.  Call
    after {!Oodb.Persist.load}, once all condition/action functions are
    registered.
    @raise Errors.Type_error when a stored rule names an unregistered
    condition/action. *)

val strategy : t -> Scheduler.strategy
val set_strategy : t -> Scheduler.strategy -> unit

(** {1 Failures, quarantine and the dead-letter queue} *)

val recent_failures : t -> (string * exn) list
(** The in-memory failure log — (rule name, exception) for detached
    executions whose own transaction failed and for contained failures —
    newest first.  A bounded ring buffer ([failure_log_limit]); older
    entries are overwritten. *)

val detached_failures : t -> (string * exn) list
(** {!recent_failures}, oldest first (the pre-containment accessor). *)

val quarantined_rules : t -> Oid.t list
(** Rules currently out of service with a tripped circuit breaker. *)

val dead_letters : t -> Oid.t list
(** The persistent dead-letter queue, oldest first: one [__dead_letter]
    object per contained failed firing, recording the rule, the encoded
    triggering instance ({!Events.Codec.encode_instance}), the printed
    exception, the attempt count and the detection time (see
    {!Sentinel_classes}). *)

val replay_dead_letter : t -> Oid.t -> (unit, exn) result
(** Re-run a dead letter's firing in its own transaction, bypassing the
    enabled/quarantine gates (replay is an operator action).  Replay starts
    from a clean slate: the failed firing's partial writes were rolled back
    when it was contained, so a successful replay applies the firing's
    effects exactly once.  On success the dead letter is deleted; on
    failure its attempt count is bumped and the raised exception returned.
    [Error] is also returned when the rule's runtime is gone (rule deleted,
    or not yet {!rehydrate}d).
    @raise Errors.Type_error when the OID is not a dead letter. *)

val purge_dead_letters : t -> int
(** Drop every queued dead letter; returns how many were deleted. *)

val set_execution_hook :
  t -> (Rule.t -> Events.Detector.instance -> execution_outcome -> unit) -> unit
(** Observe every rule execution attempt (used by {!Audit}).  The hook runs
    synchronously inside the execution; exceptions it raises propagate. *)

val clear_execution_hook : t -> unit

val stats : t -> sys_stats
val reset_stats : t -> unit

(** {1 Durability management}

    Thin wrappers over {!Oodb.Wal} so an embedder holding only the [System]
    can run the whole durability lifecycle: journaling (with optional group
    commit), full or incremental checkpoints, and compaction with
    retention.  All state lives in the underlying {!Oodb.Wal.t}; driving
    Wal directly remains equivalent. *)

val attach_wal :
  ?storage:Oodb.Storage.t ->
  ?sync:bool ->
  ?group_commit:Wal.group_commit ->
  t ->
  string ->
  Wal.t
(** Attach a journal to the system's database and remember it for
    {!checkpoint}/{!compact_wal}/{!sync_wal}.  See {!Oodb.Wal.attach}. *)

val wal : t -> Wal.t option

val detach_wal : t -> unit
(** Detach the managed journal, if any (seals the open commit group). *)

val checkpoint : ?mode:[ `Full | `Delta ] -> t -> snapshot:string -> unit
(** {!Oodb.Wal.checkpoint} on the managed journal.
    @raise Errors.Transaction_error when none is attached. *)

val compact_wal : ?retention:Wal.retention -> t -> snapshot:string -> unit
(** {!Oodb.Wal.compact} on the managed journal.
    @raise Errors.Transaction_error when none is attached. *)

val sync_wal : t -> unit
(** {!Oodb.Wal.sync} on the managed journal: seal the open commit group and
    force everything committed so far onto the disk.
    @raise Errors.Transaction_error when none is attached. *)

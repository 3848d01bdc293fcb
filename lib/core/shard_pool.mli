(** Domain-parallel execution over OID-hash-sharded databases, with
    supervision and bounded backpressure.

    A pool of [N] {e shards}, each a full {!System} — its own database,
    extents, WAL, detector state and scheduler — owned by one OCaml 5
    domain.  Shards share nothing stateful except the (domain-safe) symbol
    table and Obs layer; they cooperate by exchanging jobs over per-shard
    bounded mailboxes, each one FIFO queue under one lock.

    {2 The routing invariant}

    Shard [i] allocates OIDs congruent to [i mod N]
    ({!Oodb.Db.configure_shard}, applied by the pool right after [init]
    returns), so the owner of any object is [Oid.to_int oid mod N] — sends
    route by arithmetic, no directory.  Symbol ids stay process-wide
    (see {!Oodb.Symbol}): routing keys and slot layouts derived from them
    must mean the same thing on every shard a forwarded occurrence lands on.

    {2 Execution model}

    Jobs posted from outside run on the owning shard's domain in mailbox
    order.  A job posted from {e inside} a shard to itself runs inline
    (normal nested-send cascade semantics); to a sibling it is forwarded as
    a message carrying the current trace id, so a cascade keeps one trace
    across the hop ({!Obs.Trace.with_trace} on the receiving side).  A job
    that raises is contained at the job boundary — counted and logged to
    a bounded failure ring ({!recent_failures}) — and the shard keeps
    consuming; one shard's poison rule cannot poison a sibling.  (Failures
    {e inside} a firing are still governed by each rule's
    {!Error_policy} exactly as in the single-domain engine.)

    Every shard count runs this one model: a [shards:1] pool has one worker
    domain, one mailbox and (when asked) a supervisor, exactly like [N]
    shards, so durability, supervision and the queue counters mean the same
    thing at every size.

    {2 Lifecycle and typed errors}

    A pool is {e live} from {!create} until {!stop}.  Every submission
    ({!post}, {!post_on}, {!run_on}, {!each}, {!ingest}, {!kill}) takes one
    path into the shard — one job, one mailbox message — and returns a typed
    {!type:error} instead of raising or silently queueing when it cannot be
    accepted:

    - {!Stopped} — the pool is stopped or stopping.  Jobs accepted before
      {!stop} queued its internal stop marker still run; later submissions
      are refused, and jobs a dead shard left queued are discarded with
      their waiters woken ([Error (Shard_error Stopped)]).
    - [Degraded i] — shard [i] exhausted its restart budget; sends to it
      fail fast until {!reinstate}.
    - [Overloaded i] — the bounded inbox was full and the policy shed the
      job ([Shed_newest], or [Block] whose deadline expired).
    - [Dead_lettered i] — the job was parked in the pool's dead-letter
      ring (the [Dead_letter] policy, or an in-flight job displaced by a
      restart); {!replay_dead_letters} resubmits it.
    - [Timed_out i] — a {!run_on} or {!each} [?timeout_ms] expired.  The job may
      still execute later: a timeout abandons the wait, it cannot retract
      an accepted message.

    [invalid_arg] is reserved for programming errors (bad shard index,
    invalid configuration).

    {2 Supervision}

    Pass [?supervision] to spawn a watchdog domain that sweeps every
    [heartbeat_interval_ms]: a shard whose worker died (its [init] raised
    on restart, its loop failed, or it was {!kill}ed) is restarted; a shard
    {e wedged} — executing one job for longer than [wedge_timeout_ms] — is
    abandoned (OCaml domains cannot be killed; the old domain exits
    harmlessly if its job ever returns) and replaced.  A restart re-runs
    the pool's [init] on a fresh domain with the same index and stride —
    [init] is where per-shard {!Oodb.Wal.recover} belongs, so every
    acknowledged commit survives.  The message that was executing when the
    shard went down is dead-lettered (replaying it would take down the
    successor); the messages queued behind it stay queued and run on the
    successor in arrival order.  More than [max_restarts] restarts inside
    [restart_window_ms] degrade the shard: its backlog is dead-lettered
    with waiters woken, and sends fail fast with [Degraded] until
    {!reinstate}.

    Terminal states, per shard: [`Ready] (worker consuming), [`Restarting]
    (teardown done, replacement [init] in flight or being retried) and
    [`Degraded] (budget exhausted; operator action required).  Without
    supervision a shard whose worker dies degrades at once, as with a
    restart budget of 0: its backlog is dead-lettered with waiters woken
    ([Degraded i]), later sends fail fast, and {!drain} skips it; only a
    supervised pool can {!reinstate} it.

    {2 Backpressure}

    Inboxes are bounded at [inbox_capacity] messages; an overflowing
    submission is governed by the pool's {!backpressure} policy:
    [Block {max_wait_ms}] retries with capped-jittered backoff until space
    frees or the deadline passes (then [Overloaded]); [Shed_newest] rejects
    the incoming job immediately; [Dead_letter] parks it in the bounded
    dead-letter ring for later {!replay_dead_letters}.  A shard blocked
    forwarding to a full sibling refreshes its own heartbeat, so exerting
    backpressure is not mistaken for being wedged; mutual pressure between
    two full shards resolves at the deadline.

    Everything above is observable: [shard.restart] / [shard.degraded] /
    [shard.wedge] / [shard.shed] / [shard.dead_letter] / [shard.timeout]
    counters, [shard.inbox_depth] (depth observed per supervisor sweep) and
    [shard.supervise] (sweep duration) histograms in {!Obs.Metrics}, plus
    supervisor spans and per-event instants in {!Obs.Trace}; and
    [sentinel-cli shards --status] renders the per-shard table. *)

type t

type error =
  | Stopped  (** pool stopped or stopping *)
  | Degraded of int  (** shard's restart budget exhausted *)
  | Overloaded of int  (** bounded inbox full; job shed *)
  | Dead_lettered of int  (** parked in the pool dead-letter ring *)
  | Timed_out of int  (** wait deadline expired; job may still run *)

exception Shard_error of error
(** Carries a typed error through [('a, exn) result] waits and aborted
    waiters. *)

val error_to_string : error -> string

type backpressure =
  | Block of { max_wait_ms : int }
      (** wait (capped-jittered backoff) for space until the deadline,
          then [Overloaded] *)
  | Shed_newest  (** reject the incoming job with [Overloaded] *)
  | Dead_letter
      (** park the incoming job in the dead-letter ring with
          [Dead_lettered] *)

type supervision = {
  heartbeat_interval_ms : int;  (** supervisor sweep period *)
  wedge_timeout_ms : int;
      (** one job executing longer than this marks the shard wedged *)
  max_restarts : int;  (** restarts tolerated per window before degrading *)
  restart_window_ms : int;
}

val default_supervision : supervision
(** 10ms sweeps, 500ms wedge timeout, 3 restarts per 10s window. *)

type shard_state = [ `Ready | `Restarting | `Degraded ]

val state_to_string : shard_state -> string

type stats = {
  shard_processed : int array;  (** jobs executed, per shard *)
  shard_failed : int array;  (** jobs contained at the job boundary *)
  shard_state : shard_state array;
  shard_restarts : int array;  (** supervisor restarts, per shard *)
  inbox_depth : int array;  (** messages queued right now, per shard *)
  forwarded : int;  (** jobs that hopped shards (cross-shard sends) *)
  enqueued : int;  (** jobs accepted, pool-wide *)
  completed : int;  (** jobs fully executed *)
  discarded : int;
      (** accepted jobs that will never run: displaced by a restart,
          degrade or stop (so [completed + discarded = enqueued] at
          quiescence) *)
  shed : int;  (** submissions rejected by backpressure *)
  dead_lettered : int;  (** jobs ever parked in the dead-letter ring *)
  timeouts : int;
      (** {!run_on} and {!each} deadline expiries, one per shard that
          missed the deadline *)
  mpsc_pushes : int;
      (** successful mailbox pushes, pool-wide: one per queued job, plus
          the pool's own control messages (drain barriers, stop markers).
          {!ingest} ships one job per destination shard however many
          events it carries, so events ingested per push measures
          cross-shard message coalescing. *)
}

val create :
  ?on_idle:(int -> System.t -> unit) ->
  ?failure_log_limit:int ->
  ?dead_letter_limit:int ->
  ?inbox_capacity:int ->
  ?backpressure:backpressure ->
  ?supervision:supervision ->
  shards:int ->
  init:(t -> int -> System.t) ->
  unit ->
  t
(** Spawn the shard domains and run [init pool i] on each.  [init] receives
    the pool so rule actions can capture it for cross-shard sends; it must
    not post jobs itself (shards are not all up yet).  If any [init]
    raises at creation, the started shards are stopped and the exception
    re-raised; if it raises during a supervised {e restart}, the failure
    counts against the restart budget and is retried on the next sweep.

    [on_idle shard sys] runs on the shard's own domain each time its
    mailbox goes empty, before the worker parks — the {e durability hook}.
    Pairing it with {!System.sync_wal} on a [~group_commit] journal gives
    shard-level group commit: a quiescent shard never holds an unsealed
    commit group, while under sustained load the whole backlog drained
    between two idle points shares one seal (and one fsync).  The hook
    must not post jobs; exceptions it raises are recorded as shard
    failures and the worker keeps running, and the [~wait:true] ingests
    parked on that seal get [Error (Degraded shard)].

    [failure_log_limit] (default 128) bounds the pool-wide failure ring;
    [dead_letter_limit] (default 256) the dead-letter ring (oldest evicted
    first); [inbox_capacity] (default 4096) each shard's mailbox;
    [backpressure] (default [Block {max_wait_ms = 1000}]) the overflow
    policy; [supervision] (default none) enables the watchdog. *)

val shard_count : t -> int

val shard_of : t -> Oodb.Oid.t -> int
(** The owning shard: [Oid.to_int oid mod shard_count]. *)

val post : t -> Oodb.Oid.t -> string -> Oodb.Value.t list -> (unit, error) result
(** Route a send to the owning shard and return without waiting.  [Ok ()]
    means {e accepted} (it will execute unless the shard fails first); see
    the lifecycle section for the error cases.  The send's result value is
    discarded; failures inside it are contained per shard. *)

val post_on : t -> int -> (System.t -> unit) -> (unit, error) result
(** Run an arbitrary job on a shard, asynchronously. *)

val each : ?timeout_ms:int -> t -> (int -> System.t -> 'a) -> ('a list, exn) result
(** Run [f i] on {e every} shard [i] at once and collect the results in
    shard order — the registration hook for layers that must install the
    same state on each shard's engine (the network server registers a
    subscription's rule on every shard this way, and fans a query out to
    all shards).  Every shard's job is submitted before any answer is
    awaited, so the shards run them concurrently and the call takes about
    as long as the slowest shard, not the sum.  Every shard is attempted
    even when another fails; jobs that did run are not undone.  The error
    returned is the lowest-indexed shard's: the job's own exception, or
    [Shard_error] for a shard that declined it ([Degraded i], [Stopped],
    backpressure) or did not answer in time.  [?timeout_ms] is {e one}
    deadline for the whole call, not one per shard: shards still silent
    when it passes answer [Timed_out i], and their jobs may still run
    later.  Called from inside a shard job, that shard's own job runs
    inline (after the others are posted). *)

val run_on : ?timeout_ms:int -> t -> int -> (System.t -> 'a) -> ('a, exn) result
(** Run a job on a shard and wait for its result (used for object creation,
    queries, checkpoints).  Runs inline when already on that shard.  With
    [?timeout_ms] the wait is abandoned after the deadline with
    [Error (Shard_error (Timed_out i))] — the job itself may still execute.
    A waiter whose job is displaced by a restart, degrade or stop is woken
    with the corresponding typed error instead of blocking forever. *)

val ingest :
  ?wait:bool ->
  ?trace:int ->
  t ->
  (Oodb.Oid.t * string * Oodb.Value.t list) list ->
  (unit, error) result
(** Batched ingestion across the pool: partition the occurrence batch by
    owning shard (preserving per-shard event order) and hand each
    destination one job that runs {!System.ingest} on its sub-batch — so
    each shard pays one transaction scope, one cascade trace and one
    route-coalescing scope for its whole sub-batch, and the posting side
    ships at most one message per destination.  By default asynchronous:
    [Ok ()] means every sub-batch was accepted; {!drain} to await
    execution.  A failing sub-batch rolls back on its shard (the
    {!System.ingest} transaction) and is contained as a shard failure;
    other shards' sub-batches are unaffected.

    [~wait:true] blocks until every sub-batch has {e executed}: [Ok ()]
    then means applied, and a failed sub-batch surfaces as
    [Error (Degraded shard)] instead of a silent contained failure.  On a
    pool with an [on_idle] durability hook the wait extends through the
    owning shard's next idle seal — so with a [~group_commit] journal
    sealed from the hook, [Ok ()] means {e durable} (a seal that raises
    answers [Error (Degraded shard)], a stop before the seal
    [Error Stopped]), and concurrent
    waiting ingests that pile onto one shard share a single seal (and one
    fsync): shard-level group commit.  The network server acks [Send_many]
    through this path.

    [trace] (default: the caller's {!Obs.Trace.current}) is the cascade id
    every sub-batch job runs under.  Pass it rather than wrapping the call
    in {!Obs.Trace.with_trace}: the trace context is per domain, so a
    blocking wait inside [with_trace] would hand the id to every other
    thread of the calling domain. *)

val drain : t -> unit
(** Block until the pool is quiescent: every accepted job has either
    executed or been discarded by the failure machinery (degraded-shard
    backlogs, restart dead-letters).  Each round sends a barrier to every
    live shard at once and waits for all of them, then checks that no
    job spawned meanwhile (a cross-shard cascade) is still in flight;
    rounds repeat until none is.  Degraded shards are skipped.  The
    barrier is never shed: it bypasses the inbox capacity and the
    backpressure counters.  On a stopped pool it returns at once. *)

val kill : t -> int -> (unit, error) result
(** Chaos injection: post a job that dies mid-batch, simulating the shard
    domain crashing.  The worker loop unwinds exactly like a crash — the
    in-flight message stays claimed for the supervisor to dead-letter, and
    the messages queued behind it run on the successor.  Without
    supervision the shard degrades (see Supervision). *)

val reinstate : t -> int -> unit
(** Ask the supervisor to clear a degraded shard's restart budget and
    restart it on its next sweep (asynchronous; poll {!shard_state}).
    No-op unless the shard is currently degraded.  [invalid_arg] when the
    pool has no supervisor. *)

val shard_state : t -> int -> shard_state

val stats : t -> stats

val recent_failures : t -> (int * exn) list
(** Job-boundary failures, newest first: [(shard, exn)]. *)

val dead_letter_count : t -> int
(** Jobs currently parked in the dead-letter ring. *)

val replay_dead_letters : t -> int
(** Resubmit every parked job to its shard through the normal bounded
    submission path; returns how many were accepted.  Jobs that cannot be
    accepted (degraded shard, overflow) stay parked.  Replay re-executes
    the job verbatim — a poison job will poison again; {!purge_dead_letters}
    drops instead. *)

val purge_dead_letters : t -> int
(** Drop every parked job; returns how many were dropped. *)

val system : t -> int -> System.t
(** Direct access to a shard's system, for tests and read-only
    introspection.  Touching it while the pool is active races with the
    owning domain — {!drain} (or {!stop}) first. *)

val stop : t -> unit
(** Stop the supervisor, then the workers, and join their domains.  Jobs
    accepted before the stop marker was queued still run on a live shard;
    a dead shard's backlog is discarded with waiters woken ([Stopped]) —
    {!drain} first for a clean shutdown.  Abandoned wedged domains are
    joined if their poisoned job has returned, leaked otherwise.
    Idempotent.  The pool rejects new submissions with [Error Stopped]
    afterwards. *)

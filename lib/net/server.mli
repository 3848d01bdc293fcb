(** The Sentinel network server: a TCP front for a {!Sentinel.Shard_pool}.

    One server owns one listening socket and fronts one pool.  Each
    accepted connection gets a {e reader} thread (parses {!Frame}s,
    dispatches requests to the pool) and a {e writer} thread (drains the
    connection's {e outlet} — the bounded queue of notification frames —
    plus control replies).  Engine work itself always runs on the pool's
    shard domains; connection threads only move bytes, so a slow client
    never occupies an engine domain.

    {2 Request semantics}

    - [Send_many] decodes the batch ({!Events.Codec.decode_event}) and
      hands it to {!Sentinel.Shard_pool.ingest} under the frame's trace
      id ({!Obs.Trace.with_trace}) — a client batch becomes one
      partitioned cross-shard ingest: one transaction scope, one
      route-coalescing scope and (with a group-commit WAL attached) one
      fsync per destination shard.  The server ingests with
      [Shard_pool.ingest ~wait:true], so [Ack] means {e applied} — and on
      a pool whose [on_idle] hook seals a group-commit journal, {e
      durable}: concurrent clients landing on one shard then share a
      single seal and fsync (shard-level group commit), while a lone
      serial client pays a full durability round-trip per batch.  [Drain]
      awaits quiescence.
    - [Subscribe] registers a rule for the frame's event expression over
      its monitored classes on {e every} shard
      ({!Sentinel.Shard_pool.each}); the rule's action encodes each
      detected instance ({!Events.Codec.encode_instance}) and pushes it
      into the subscribing connection's outlet.  Firings stream back as
      chunked [Notify] frames (up to [flush_max] instances per frame).
    - [Query] parses the predicate ({!Oodb.Query_parser}), selects on
      every shard at once ({!Sentinel.Shard_pool.each}) and replies with
      [Rows] chunks followed by [Query_done].  The writer sends every
      control reply queued at that moment, up to 64 KiB, in one socket
      write, so a whole query reply usually leaves in one syscall;
      [frames_out] still counts frames, not writes.

    {2 Backpressure}

    The outlet is bounded at [outlet_capacity] notifications and governed
    by the pool's own {!Sentinel.Shard_pool.backpressure} policy type:
    [Block] makes the producing rule action wait (capped at its
    deadline, then sheds), [Shed_newest] drops the incoming notification,
    [Dead_letter] parks it in a bounded per-connection ring that the
    writer replays automatically once the consumer catches up (oldest
    parked entries are shed when the ring itself overflows).  Accounting
    is exact: [produced = enqueued + shed + parked] at quiescence —
    CI gates on it.

    Connection threads submit to the pool concurrently through its
    domain-safe mailboxes, whatever its shard count.

    Everything is observable: [net.connections], [net.frames_in/out],
    [net.bytes_in/out], [net.events], [net.notifications], [net.shed]
    counters and the [net.flush] latency histogram in {!Obs.Metrics}. *)

type t

type stats = {
  connections_accepted : int;
  connections_active : int;  (** gauge *)
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  events_ingested : int;  (** events accepted into the pool *)
  subscriptions_active : int;  (** gauge *)
  notifications_produced : int;  (** rule firings offered to outlets *)
  notifications_enqueued : int;  (** accepted into an outlet queue *)
  notifications_delivered : int;  (** written to the wire *)
  notifications_shed : int;  (** dropped by policy (incl. ring eviction) *)
  notifications_parked : int;  (** gauge: waiting in dead-letter rings *)
  errors_sent : int;
}

val create :
  ?host:string ->
  ?port:int ->
  ?backlog:int ->
  ?outlet_capacity:int ->
  ?outlet_policy:Sentinel.Shard_pool.backpressure ->
  ?parked_limit:int ->
  ?flush_max:int ->
  ?so_sndbuf:int ->
  pool:Sentinel.Shard_pool.t ->
  unit ->
  t
(** Bind, listen and start the accept loop.  [host] (default
    ["127.0.0.1"]), [port] (default 0 = ephemeral, read it back with
    {!port}), [backlog] (default 64).  [outlet_capacity] (default 1024)
    bounds each connection's notification queue; [outlet_policy]
    (default [Block {max_wait_ms = 100}]) governs overflow;
    [parked_limit] (default 1024) bounds the [Dead_letter] ring;
    [flush_max] (default 64) caps instances per [Notify] frame and rows
    per [Rows] frame.  [so_sndbuf] shrinks each accepted socket's kernel
    send buffer (tests use it to make a slow consumer exert backpressure
    quickly).  The server does not own the pool: {!stop} leaves the pool
    running. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val pool : t -> Sentinel.Shard_pool.t
val stats : t -> stats

val render_stats : t -> string
(** The [Stats] frame body: one [key value] line per {!stats} field. *)

val stop : t -> unit
(** Close the listener and every connection, delete the rules their
    subscriptions registered, and join all connection threads.
    Idempotent. *)

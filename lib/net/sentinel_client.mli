(** OCaml client for the Sentinel wire protocol.

    A client owns one TCP connection plus a receiver thread that routes
    server frames: replies feed the (single-outstanding, FIFO) request
    path, [Notify] frames dispatch subscription callbacks.  All calls are
    thread-safe; requests from concurrent threads serialize.

    {2 Buffered sends}

    {!send} encodes the event straight into the connection's
    {!Frame.batch}, under one lock; {!flush} frames the whole batch as one
    [Send_many] — one blit, one CRC; one partitioned cross-shard ingest,
    one group-commit fsync per destination shard — and waits for the
    [Ack].  A retry after a reconnect resends the same bytes.  The buffer
    auto-flushes at [buffer_max] events.  Each flush
    stamps the frame with the current {!Obs.Trace} cascade id (or a fresh
    one, {!Obs.Trace.fresh_id}) so a wire hop stays in one trace.

    {2 Reconnection}

    A broken connection is re-established lazily by the next request:
    up to [max_attempts] tries with {!Sentinel.Error_policy.retry_delay}
    equal-jitter backoff between them, then {!Connection_failed}.  After
    the handshake every live subscription is re-registered (server-side
    subscription ids change; the client-side {!subscription} id you hold
    stays stable).  An in-flight request interrupted by a disconnect is
    retried on the new connection — sends are therefore at-least-once
    across reconnects. *)

exception Connection_failed of string
(** Could not (re)connect within [max_attempts]. *)

exception Version_mismatch of { server : int; client : int }
(** The server rejected the protocol version ([server = 0] when the
    server's version could not be recovered from its error reply). *)

exception Server_error of { code : int; msg : string }
(** A typed [Err] reply (see the {!Frame} error codes). *)

exception Connection_lost
(** Internal marker for a connection dropping mid-request; surfaces only
    if a reconnect is impossible mid-call. *)

type t

type subscription
(** A client-side handle, stable across reconnects. *)

type stats = {
  events_sent : int;  (** events acked by the server *)
  flushes : int;  (** [Send_many] frames acked *)
  events_buffered : int;  (** gauge: waiting for the next {!flush} *)
  notifications : int;  (** rule-firing instances received *)
  reconnects : int;  (** successful re-handshakes after a drop *)
}

val connect :
  ?client_name:string ->
  ?buffer_max:int ->
  ?max_attempts:int ->
  ?rand:(unit -> float) ->
  host:string ->
  port:int ->
  unit ->
  t
(** Connect and handshake.  [buffer_max] (default 64) is the auto-flush
    threshold; [max_attempts] (default 10) bounds each (re)connect loop;
    [rand] (default {!Random.float}[ 1.0]) feeds the backoff jitter.
    @raise Connection_failed after [max_attempts] refused attempts
    @raise Version_mismatch when the server speaks another version *)

val shards : t -> int
(** The server pool's shard count, from the handshake. *)

val send : t -> Oodb.Oid.t * string * Oodb.Value.t list -> unit
(** Buffer one event; auto-flushes at [buffer_max]. *)

val flush : t -> int
(** Ship the buffer as one [Send_many] and wait for the [Ack]; returns the
    acked event count (0 on an empty buffer).
    @raise Server_error when the pool rejected the batch *)

val subscribe :
  t ->
  ?name:string ->
  classes:string list ->
  Events.Expr.t ->
  (Events.Detector.instance list -> unit) ->
  subscription
(** Register a rule on every server shard; the callback runs on the
    receiver thread for each [Notify] chunk (keep it quick, or hand off).
    Re-registered automatically after a reconnect. *)

val unsubscribe : t -> subscription -> unit

val query :
  t -> cls:string -> pred:string -> (int * string * (string * string) list) list
(** Select on every shard: [(oid, class, attrs)] rows with
    {!Oodb.Persist.encode_value}-encoded attribute values.  [pred] is
    {!Oodb.Query_parser} syntax. *)

val drain : t -> unit
(** Flush the send buffer, then block until the server pool is quiescent. *)

val ping : t -> float
(** Round-trip time, seconds. *)

val server_stats : t -> string
(** The server's {!Server.render_stats} text. *)

val stats : t -> stats

val close : t -> unit
(** Close the socket and join the receiver.  Idempotent; buffered unsent
    events are dropped. *)

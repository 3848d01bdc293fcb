(** The Sentinel wire protocol: length-prefixed, CRC-checked binary frames.

    Every frame is a fixed 16-byte header followed by the payload:

    {v
      offset  size  field
      0       4     magic "SNTL"
      4       1     protocol version (see {!version})
      5       1     message tag
      6       2     flags (reserved, must be 0)
      8       4     payload length, big-endian
      12      4     CRC-32 of the payload, big-endian
      16      len   payload
    v}

    Payload fields are big-endian fixed-width integers and
    length-prefixed strings; free-form values — event expressions,
    occurrences, send requests, attribute values — reuse the
    {!Events.Codec} / {!Oodb.Persist} textual encodings rather than a
    second serializer, so the dead-letter queue, the WAL and the wire
    all speak the same value language.

    [decode (encode m)] is structurally equal to [m].  A frame that is
    truncated, carries a bad magic, a flipped CRC bit or a malformed
    payload decodes to {!Frame_error}; only the version byte is reported
    separately ({!Version_mismatch}) so a server can answer an
    incompatible client with a typed error frame instead of dropping the
    connection silently. *)

val version : int
(** The protocol version this build speaks (1). *)

val max_payload : int
(** Upper bound on accepted payload length (16 MiB); longer frames are
    rejected as {!Frame_error} before any allocation. *)

exception Frame_error of string
(** Malformed frame: bad magic, bad CRC, truncated, oversized, non-zero
    flags, unknown tag, or a malformed payload. *)

exception Version_mismatch of int
(** The frame's version byte (the argument is the version {e received});
    raised before the payload is touched. *)

(** One protocol message.  Tags [0x01..] flow client-to-server, [0x81..]
    server-to-client; the codec itself is direction-agnostic. *)
type t =
  | Hello of { version : int; client : string }
      (** handshake; the in-payload version must match the header's *)
  | Send_many of { trace : int; events : string list }
      (** streaming ingestion: {!Events.Codec.encode_event}-encoded send
          requests, executed as one partitioned batch ingest.  [trace]
          carries the client's cascade id ([0] = none).  The client and
          server build and read this frame in place ({!batch},
          {!request}); the list form is for tools and tests. *)
  | Subscribe of { name : string; classes : string list; expr : string }
      (** register a rule ({!Events.Codec.encode}-encoded event
          expression over [classes]) whose firings stream back as
          {!Notify} frames *)
  | Unsubscribe of { sub_id : int }
  | Query of { cls : string; pred : string }
      (** predicate in {!Oodb.Query_parser} syntax; rows stream back *)
  | Drain  (** block until the engine is quiescent *)
  | Stats_req
  | Ping of { token : int }
  | Hello_ack of { version : int; shards : int }
  | Ack of { count : int }  (** the batch was accepted, [count] events *)
  | Sub_ack of { sub_id : int }
  | Notify of { sub_id : int; instances : string list }
      (** a chunked outlet flush: one frame, up to the server's
          [flush_max] {!Events.Codec.encode_instance}-encoded firings *)
  | Rows of { rows : (int * string * (string * string) list) list }
      (** query results, chunked: (oid, class, attrs) with
          {!Oodb.Persist.encode_value}-encoded attribute values *)
  | Query_done of { total : int }
  | Drain_done
  | Stats of { text : string }
  | Pong of { token : int }
  | Err of { code : int; msg : string }

(** {1 Error codes} (the [code] of {!Err}) *)

val err_version : int
(** 1 — protocol version mismatch *)

val err_frame : int
(** 2 — malformed frame; the stream is unrecoverable *)

val err_request : int
(** 3 — bad request payload (expr, predicate, class) *)

val err_degraded : int
(** 4 — a shard is degraded; engine-side failure *)

val err_overload : int
(** 5 — backpressure shed the request *)

val err_stopped : int
(** 6 — server or pool stopping *)

val tag : t -> int
(** The message's wire tag (for tests and diagnostics). *)

val encode : ?version:int -> t -> string
(** The full frame — header plus payload.  [?version] overrides the
    header/handshake version byte (tests use it to provoke
    {!Version_mismatch}). *)

val decode : string -> t
(** Decode exactly one whole frame.
    @raise Frame_error on any malformation, including trailing garbage
    @raise Version_mismatch before payload inspection *)

(** {1 Send_many in place}

    The ingest path never materialises {!Send_many}'s [string list].  A
    client appends each event, with its length prefix, to one {!batch}
    and frames the batch with one blit and one CRC; a server reads a
    {!request}, whose events stay in the received payload until
    {!decode_events} decodes them straight from it.  The bytes are those
    of {!encode} on [Send_many] of the same events, and {!decode} of a
    [Send_many] walks the events with the same walker, so both paths
    accept and reject exactly the same frames. *)

type batch
(** A [Send_many] under construction: the events' length-prefixed
    encodings, back to back. *)

val batch : unit -> batch

val batch_add : batch -> Oodb.Oid.t * string * Oodb.Value.t list -> unit
(** Append one event ({!Events.Codec.add_event}) with its length prefix.
    An exception while encoding leaves the batch unchanged. *)

val batch_length : batch -> int
(** Events appended since the last {!batch_clear}. *)

val batch_clear : batch -> unit

val batch_frame : batch -> trace:int -> string
(** The whole [Send_many] frame of the batch's events: byte-equal to
    [encode (Send_many { trace; events })] where [events] are the
    {!Events.Codec.encode_event} strings of the events appended, in
    order.  The batch is left as it was.
    @raise Frame_error when the payload would exceed {!max_payload} *)

type events
(** The events of a received [Send_many], still in its payload, every
    length prefix already checked. *)

val event_count : events -> int

val decode_events : events -> (Oodb.Oid.t * string * Oodb.Value.t list) list
(** Decode every event, in order, with {!Events.Codec.decode_event_sub}
    on its slice of the payload; an event whose method name equals the
    previous one's shares that string.  The whole list is decoded before
    it is returned, so a caller that ingests the result ingests all or
    nothing of a batch.
    @raise Oodb.Errors.Parse_error on the first malformed event *)

type request =
  | Message of t  (** any message but [Send_many] *)
  | Events of { trace : int; events : events }  (** a [Send_many] *)

val decode_request : string -> request
(** {!decode}, with a [Send_many]'s events left in place.  Raises what
    {!decode} raises on the same bytes. *)

(** {1 Blocking stream I/O}

    Frame-at-a-time reads and writes over a connected socket; both
    retry [EINTR] and treat a peer close as [End_of_file]. *)

val write_fd : Unix.file_descr -> ?version:int -> t -> int
(** Write one frame; returns the bytes written. *)

val write_encoded : Unix.file_descr -> string -> unit
(** Write a frame {!encode} produced, e.g. to send the same bytes again. *)

val read_fd : Unix.file_descr -> t * int
(** Read one frame; returns it with the bytes consumed.
    @raise End_of_file when the peer closed between frames (or mid-frame)
    @raise Frame_error / Version_mismatch as {!decode} *)

val read_request : Unix.file_descr -> request * int
(** {!read_fd} with a [Send_many]'s events left in place
    ({!decode_request}): what a server reads. *)

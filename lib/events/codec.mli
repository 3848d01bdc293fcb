(** Serialization of event expressions.

    Rule and event objects are first-class persistent objects; their event
    expressions are stored as an attribute in this compact textual form and
    decoded when the rule layer rehydrates a loaded database.

    [decode (encode e)] is structurally equal to [e] ({!Expr.equal}). *)

val encode : Expr.t -> string

val decode : string -> Expr.t
(** @raise Oodb.Errors.Parse_error on malformed input. *)

(** {1 Occurrences and detected instances}

    The rule layer's dead-letter queue persists the composite-event
    instance that triggered a failed firing, so the firing can be replayed
    after a reload.  [decode_occurrence (encode_occurrence o)] is
    {!Oodb.Occurrence.equal} to [o], and likewise for instances
    field-by-field. *)

val encode_occurrence : Oodb.Occurrence.t -> string
val decode_occurrence : string -> Oodb.Occurrence.t
(** @raise Oodb.Errors.Parse_error on malformed input. *)

val encode_instance : Detector.instance -> string
val decode_instance : string -> Detector.instance
(** @raise Oodb.Errors.Parse_error on malformed input. *)

(** {1 Wire events}

    The network layer ships send requests — the [(target, method, params)]
    triples that feed {!Oodb.Db.send} and [System.ingest] — in the same
    escaped textual form, so the binary protocol's payload encoding reuses
    this module instead of introducing a second serializer.
    [decode_event (encode_event e)] is structurally equal to [e]. *)

val add_event : Buffer.t -> Oodb.Oid.t * string * Oodb.Value.t list -> unit
(** Append the event's encoding
    [ev(<oid>,<escaped method>,<escaped value>;<escaped value>...)] to the
    buffer in one pass.  A float parameter is written escaped as it goes
    ({!Oodb.Persist.add_value_escaped}); nothing else is allocated. *)

val encode_event : Oodb.Oid.t * string * Oodb.Value.t list -> string
(** {!add_event} into a fresh string. *)

val decode_event_sub :
  ?meth:string ->
  string ->
  int ->
  int ->
  Oodb.Oid.t * string * Oodb.Value.t list
(** [decode_event_sub ?meth s pos len] decodes the event encoded in the
    [len] bytes of [s] from [pos], in place.  When the method field spells
    [meth] with no escape, the result shares the [meth] string: a frame
    decoder passes the previous event's method, so a batch of one method
    allocates its name once.  A float parameter in the shape {!add_event}
    writes is read straight into its bits
    ({!Oodb.Persist.hex_float_sub}); any other parameter is unescaped and
    decoded by {!Oodb.Persist.decode_value}, so the inputs accepted and
    the errors raised do not depend on the shortcut.
    @raise Oodb.Errors.Parse_error on malformed input. *)

val decode_event : string -> Oodb.Oid.t * string * Oodb.Value.t list
(** {!decode_event_sub} over the whole string.
    @raise Oodb.Errors.Parse_error on malformed input. *)

(** Persistence — the role Zeitgeist's [zg-pos] class plays in the paper.

    The store is serialized to a line-oriented text format: the logical
    clock, every live object (OID, class, attributes, consumers list),
    class-level consumer lists, and index declarations.  Because rule and
    event objects are ordinary objects, they persist like everything else;
    what does {e not} persist is executable code — method bodies and rule
    conditions/actions — which is re-bound from registered classes and the
    rule layer's function registry after loading, exactly as Sentinel
    re-links C++ member-function pointers.

    Loading therefore requires the same class definitions to be registered
    in the target database first; the loader fails on objects of unknown
    classes. *)

val to_channel : Db.t -> out_channel -> unit
val to_string : Db.t -> string

val save : ?storage:Storage.t -> Db.t -> string -> unit
(** [save db path] writes crash-atomically: a per-process-unique temp file
    is written, fsynced and atomically renamed over [path], then the
    containing directory is fsynced — a crash at any point leaves either
    the old snapshot or the new one, never a torn mix, and a failure while
    serializing removes the temp file.  The snapshot records the store's
    {!Wal} high-water sequence number ([walseq]), so replaying a log that
    predates it cannot double-apply batches.  [storage] (default
    {!Storage.unix}) selects the I/O backend. *)

val of_channel : Db.t -> in_channel -> unit
(** [of_channel db ic] populates [db] — which must contain no objects but
    must already have all needed classes registered — from the stream.
    @raise Errors.Parse_error on malformed input
    @raise Errors.No_such_class for objects of unregistered classes
    @raise Errors.Transaction_error when [db] already contains objects or a
    transaction is open. *)

val of_string : Db.t -> string -> unit

val load : ?storage:Storage.t -> Db.t -> string -> unit
(** Read a snapshot file through [storage] (default {!Storage.unix}). *)

(** {1 Incremental (delta) checkpoints}

    A delta persists only the objects created, mutated or deleted since the
    last snapshot artifact (base snapshot or previous delta), chained to it
    by WAL sequence number: the delta's [prev] header must equal the
    store's [snapshot_seq] for the delta to apply.  Written with the same
    tmp+fsync+rename+dir-fsync discipline as {!save}.  {!Wal.checkpoint}
    with [~mode:`Delta] and {!Wal.recover} drive these; they are exposed
    here for tests and tooling. *)

val save_delta : ?storage:Storage.t -> Db.t -> string -> int
(** [save_delta db path] writes the dirty set as a delta chained to the
    current baseline, makes the delta the new baseline (clears the dirty
    set, advances [snapshot_seq]) and returns the bytes written. *)

val apply_delta : ?storage:Storage.t -> Db.t -> string -> [ `Applied | `Stale ]
(** [apply_delta db path] applies the delta on top of the store's current
    state.  Returns [`Stale] without touching the store when the chain
    check fails ([prev] does not match [snapshot_seq]) or the file is not a
    delta — recovery treats that as the end of the usable chain.
    @raise Errors.Parse_error on a malformed body past the header
    @raise Errors.Transaction_error when a transaction is open. *)

val delta_header : ?storage:Storage.t -> string -> (int * int) option
(** [(prev, walseq)] from a delta file's header, or [None] when the file is
    missing or not a delta. *)

(** {1 Value encoding}

    The value language the snapshot, the WAL, the dead-letter queue and the
    wire share. *)

val encode_value : Value.t -> string
(** Single-token, whitespace-free encoding. *)

val add_value : Buffer.t -> Value.t -> unit
(** Append {!encode_value}'s bytes. *)

val decode_value : string -> Value.t
(** A float token in the shape {!add_hex_float} writes is read in place,
    straight into its bits; any other float token (decimal, uppercase,
    a leading [+], more than 13 fraction digits, [nan], [infinity]) goes
    to [float_of_string], so the tokens accepted and the error messages
    are those of [float_of_string].
    @raise Errors.Parse_error *)

(** {1 Hex floats}

    Floats travel as [Printf "%h"] writes them: exact, and
    locale-independent. *)

val add_hex_float : Buffer.t -> float -> unit
(** Append exactly what [Printf.sprintf "%h"] returns, built from the
    float's bits with no intermediate string. *)

val hex_float_sub : escaped:bool -> string -> int -> int -> float option
(** [hex_float_sub ~escaped s pos len] reads the [len] bytes of [s] from
    [pos] when they have the canonical shape {!add_hex_float} writes,
    [[-]0x(0|1)[.<1-13 lowercase hex digits>]p(+|-)<1-4 digits>], and
    name a float that shape gives exactly: a [0x1] lead with an exponent
    in [-1022..1023], [0x0p+0], or a [0x0.] subnormal at [p-1022].  With
    [~escaped:true] the exponent's [+] may also be written [%2B], as
    {!add_value_escaped} writes it.  [None] for anything else; the caller
    decides that token with [float_of_string]. *)

(** {1 Escapes and integer tokens}

    The [%XX] escaping and decimal integers every textual codec in the
    store uses, written straight into a caller's buffer. *)

type charset
(** The bytes that travel unescaped. *)

val charset : (char -> bool) -> charset

val add_escaped : charset -> Buffer.t -> string -> unit
(** Append the string with every byte outside the set written as [%XX]
    (uppercase hex). *)

val escape_with : charset -> string -> string
(** The escaped string; the argument itself when nothing needs escaping. *)

val add_value_escaped : charset -> Buffer.t -> Value.t -> unit
(** [add_value_escaped set buf v] appends the bytes of
    [add_escaped set buf (encode_value v)]; a float is written escaped as
    it goes, with no intermediate string. *)

val unescape_sub : string -> int -> int -> string
(** [unescape_sub s pos len] decodes the [%XX] escapes in the [len] bytes
    of [s] from [pos].
    @raise Errors.Parse_error on a truncated or non-hex escape *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal digits of the integer, as [string_of_int] writes
    them. *)

val int_sub : string -> int -> int -> int option
(** [int_sub s pos len] reads an integer token as [int_of_string_opt]
    would read [String.sub s pos len]. *)

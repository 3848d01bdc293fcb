(** The object-database substrate — the role Zeitgeist plays in the paper.

    Start at {!Db} (object lifecycle, message dispatch, subscription) and
    {!Schema} (class definitions with event interfaces).  The storage
    services around them: {!Transaction} (nested, undo-logged), {!Persist}
    (snapshots), {!Wal} (write-ahead logging and crash recovery), {!Storage}
    (pluggable file I/O with a fault-injecting in-memory backend), {!Query}
    / {!Query_parser} (predicate selection with index planning), {!Btree}
    (ordered index backing), {!Postings} (a key's OIDs in either index),
    {!Evolution} (runtime schema changes), {!Gc} (reachability collection)
    and {!Introspect} (reports).

    {!Types} holds the shared record definitions; {!Occurrence} is the
    primitive-event record the event layer consumes. *)

module Oid = Oid
module Symbol = Symbol
module Value = Value
module Errors = Errors
module Types = Types
module Schema = Schema
module Transaction = Transaction
module Db = Db
module Occurrence = Occurrence
module Query = Query
module Query_parser = Query_parser
module Persist = Persist
module Storage = Storage
module Postings = Postings
module Btree = Btree
module Wal = Wal
module Evolution = Evolution
module Gc = Gc
module Introspect = Introspect
module Verify = Verify

(** Write-ahead logging and crash recovery.

    {!Persist} snapshots the whole store; this module complements it with an
    append-only log of logical mutations (object creation/deletion,
    attribute writes, subscriptions, index DDL) grouped into transaction
    batches.

    {2 Log format (v2)}

    A log starts with the magic line ["SENTINELWAL 2"].  Each batch is

    {v B <seq> <count> <crc32>\n <count entry lines> E\n v}

    where [seq] is a monotonically increasing sequence number (strictly
    [+1] per batch, never reset — not even by {!checkpoint}), [count] the
    number of entry lines and [crc32] the checksum of the entry payload.
    Logs written by the previous version (["SENTINELWAL 1"], bare [B]/[E]
    framing) remain readable: {!attach} and {!replay} accept both.

    {2 Durability contract}

    With the default [~sync:true], a batch is fsynced before the journal's
    counters advance, so once a transaction's commit returns, its batch
    survives any crash.  Recovery stops cleanly at the first torn {e or
    corrupt} batch (zeros after the last batch are a clean end) — a crash
    mid-append, a bit flip, or a foreign tail can
    lose at most uncommitted work, never raise out of {!replay}.
    {!checkpoint} is crash-atomic end to end: the snapshot goes down via
    temp file + fsync + atomic rename + directory fsync and embeds the
    sequence number of the last logged batch ([walseq]), so a crash
    between snapshot and log rotation cannot double-apply batches — replay
    skips everything the snapshot already contains.

    Logs are written through {!Storage.type-t.open_log}, which may keep
    zeros ahead of the logical end so that a seal's fsync flushes data
    only.  NUL bytes after the last intact batch are therefore a clean end
    of the log, not damage: replay does not count them as discarded, and
    {!attach} truncates them before appending.

    The log also carries the logical clock.  A committed transaction's
    batch records it; any other batch written while the clock has moved
    past the last value logged records it too, and {!sync} and {!detach}
    write a clock-only batch when nothing else would.  Replay keeps the
    maximum, so a recovered store never reissues a timestamp.

    {2 Group commit}

    With [~group_commit:{max_batch; max_wait_us}] the coordinator coalesces
    commits arriving within the window into a single WAL batch — one
    sequence number, one CRC, one fsync — sealing the open group when it
    reaches [max_batch] commits, when its window has expired by the time
    the next commit arrives, or at any durability point ({!sync},
    {!checkpoint}, {!compact}, {!detach}).  This shifts the durability
    point from every commit to every {e seal}: a crash loses at most the
    open (unsealed) group, wholesale — groups are atomic, so recovery still
    lands exactly on a batch boundary, never between coalesced commits.

    {2 Incremental checkpoints and compaction}

    [checkpoint ~mode:`Delta] persists only the objects dirtied since the
    last snapshot artifact as a [<snapshot>.delta-<k>] file, chained to its
    predecessor by WAL sequence number ([prev]/[walseq] headers) and
    written with the same tmp+fsync+rename+dir-fsync discipline.  Delta
    checkpoints do {e not} rotate the WAL; {!compact} folds base + deltas +
    log into a fresh base snapshot, deletes the delta chain and truncates
    the log under a {!retention} policy.  {!recover} replays base + deltas
    + WAL tail; a stale or missing chain element simply ends the chain,
    which is always safe because the WAL retains every batch past the base
    until a compaction folds it in.

    The log records data only — method bodies and rule code re-bind from
    registered classes and the rule layer's registry, exactly as with
    {!Persist}.  Replay reproduces OIDs and the logical clock, so
    occurrence timestamps and rule subscriptions stay coherent.

    Typical lifecycle:
    {[
      let wal =
        Wal.attach ~group_commit:{ max_batch = 32; max_wait_us = 2000 }
          db "app.wal"
      in
      ... transactions ...
      Wal.checkpoint wal ~mode:`Delta ~snapshot:"app.db";
      ... more transactions ...
      Wal.compact wal ~retention:(Keep_bytes 1_000_000) ~snapshot:"app.db";
      ... crash ...
      (* recovery: *)
      let db = Db.create () in
      register_classes db;
      let r = Wal.recover db ~snapshot:"app.db" ~wal:"app.wal" in
      ...
    ]} *)

type t

type group_commit = { max_batch : int; max_wait_us : int }
(** Commit-coalescing window: a group seals after [max_batch] commits, or —
    checked when the next commit arrives — once [max_wait_us] microseconds
    have passed since the group opened.  [{max_batch = 1; _}] degenerates
    to one batch (and one fsync) per commit. *)

type retention = Keep_none | Keep_bytes of int | Keep_since_seq of int
(** How much log tail {!compact} retains after folding it into the base:
    nothing, the largest suffix of whole batches within a byte budget, or
    every batch with a sequence number at or above a floor.  Retained
    batches are already covered by the new base — replay skips them — so
    retention trades disk for forensics and inspection, never correctness. *)

val attach :
  ?storage:Storage.t -> ?sync:bool -> ?group_commit:group_commit -> Db.t ->
  string -> t
(** Install journaling on the database, appending to (or creating) the log
    file through [storage] (default {!Storage.unix}).  Mutations outside
    any transaction are logged as single-entry batches; transactional
    mutations buffer until the outermost commit and are dropped on abort
    (inner aborts drop only their own entries).

    Attaching to an existing log validates the magic line and repairs the
    tail: a torn or corrupt final batch, and any zero tail, is truncated
    away so later appends stay reachable by replay.  A file holding only
    zeros (or a torn magic line) is re-initialised.  With [~sync:false] batches are flushed but
    not fsynced — faster, but a crash may lose recently committed work.
    [group_commit] (default off) enables the commit coordinator.
    @raise Errors.Parse_error when the file exists, is non-empty and does
    not start with a known magic line.
    @raise Errors.Transaction_error when a journal is already attached or a
    transaction is open.
    @raise Invalid_argument on a non-positive [max_batch] or negative
    [max_wait_us]. *)

val detach : t -> unit
(** Seal the open group (or log a clock that moved without one), flush,
    (when [sync]) fsync, close and uninstall.  Idempotent. *)

val sync : t -> unit
(** Force durability now: seal the open commit group (or, when only the
    logical clock has moved, write a clock-only batch) and, for a
    [~sync:false] journal, fsync the buffered writes.  After [sync] returns
    every commit made so far survives any crash.
    @raise Errors.Transaction_error on a detached journal. *)

val pending_commits : t -> int
(** Commits waiting in the open (not yet durable) group; 0 without
    [group_commit] or right after a seal. *)

val checkpoint : ?mode:[ `Full | `Delta ] -> t -> snapshot:string -> unit
(** Seal the open group, then checkpoint.  [`Full] (default) saves a
    {!Persist} snapshot, rotates the log and deletes any delta chain, each
    step crash-atomic: the snapshot records [walseq] before the old log is
    replaced through a temp file + rename, so whichever set of files a
    crash leaves behind recovers to exactly the checkpointed state (no lost
    batch, no batch applied twice).  The sequence numbering continues
    across the rotation.

    [`Delta] persists only the dirty set as the next [<snapshot>.delta-<k>]
    chain element and leaves the log alone — cost proportional to the work
    done since the last checkpoint, not to the store.  Falls back to a full
    checkpoint when no base snapshot exists (or none this store chains
    from); does nothing when no batch was committed since the last chain
    element.
    @raise Errors.Transaction_error on a detached journal or during a
    transaction. *)

val compact : ?retention:retention -> t -> snapshot:string -> unit
(** Fold base + deltas + log into a fresh base snapshot, delete the delta
    chain and truncate the log under [retention] (default {!Keep_none}).
    Crash-atomic at every step: the new base appears by atomic rename;
    until the log rewrite renames, the full old log coexists with it
    (replay skips what the base covers); deltas orphaned by a crash fail
    their chain check and are ignored by {!recover}.
    @raise Errors.Transaction_error on a detached journal or during a
    transaction. *)

val delta_files :
  ?storage:Storage.t -> snapshot:string -> unit -> (string * int * int) list
(** The on-disk delta chain for [snapshot], in chain order:
    [(path, prev, walseq)] per element, stopping at the first missing or
    unreadable file. *)

val batches_written : t -> int
(** Batches durably written by this journal — counted only after the batch
    has been flushed (and fsynced, when [sync]).  With [group_commit] a
    sealed group counts as one batch. *)

val entries_written : t -> int

val replay : ?storage:Storage.t -> Db.t -> string -> int
(** Apply the committed batches from the log to [db]; returns how many were
    applied.  Batches already contained in a loaded snapshot (sequence
    number at or below the snapshot's [walseq]) are skipped.  Replay stops
    cleanly at the first torn or corrupt batch — bad checksum, broken
    framing, an undecodable entry — discarding it and everything after it;
    corruption never raises.  Zeros after the last intact batch end the log
    cleanly and are not counted as discarded.  A missing file counts as an
    empty log.
    Recovery counters (batches replayed/discarded, checksum failures) land
    in {!Db.stats}.
    @raise Errors.No_such_class when the log references unregistered
    classes. *)

type recovery = {
  r_snapshot_loaded : bool;
  r_deltas_applied : int;
  r_batches_replayed : int;
}

val recover : ?storage:Storage.t -> Db.t -> snapshot:string -> wal:string -> recovery
(** Full recovery pipeline: load the base snapshot (when present), apply
    the delta chain in order — stopping at the first missing or stale
    element, which the WAL tail then covers — and replay the log.  [db]
    must be fresh (classes registered, no objects), as with
    {!Persist.load}. *)

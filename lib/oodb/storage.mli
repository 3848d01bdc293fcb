(** Pluggable effectful file I/O for the persistence layer.

    {!Persist} and {!Wal} perform all file effects — writes, flushes,
    fsyncs, renames, truncations — through a {!t} value instead of calling
    the OS directly.  Two backends ship with the substrate:

    - {!unix}: the real filesystem, with durable [fsync] on files and (best
      effort) on their containing directories;
    - {!Mem}: an in-memory filesystem with {e fault injection} — it can
      crash after any byte prefix or operation count, tear the write in
      flight, and fail writes transiently — used by the crash-point
      harness in [test/test_crash.ml] to prove recovery correct at every
      possible crash point.

    The interface is a record of closures rather than a functor so backends
    can be chosen per call site at runtime ([Wal.attach ~storage:...]). *)

type writer = {
  write : string -> unit;
      (** Append the bytes.  May raise {!Errors.Io_error} (transient, fully
          retryable: a failed write lands nothing) or {!Crash}. *)
  flush : unit -> unit;  (** Push application buffers to the OS. *)
  fsync : unit -> unit;  (** Flush, then force the bytes to stable storage. *)
  close : unit -> unit;  (** Idempotent; never raises. *)
}

type t = {
  name : string;  (** backend label, for diagnostics *)
  exists : string -> bool;
  size : string -> int;  (** file size in bytes; [0] when missing *)
  read_file : string -> string;
      (** Whole contents. @raise Sys_error when missing. *)
  open_writer : append:bool -> string -> writer;
      (** [append:false] truncates/creates. *)
  open_log : append:bool -> string -> writer;
      (** A writer for an append-only log, with the same contract as
          [open_writer].  A backend may write zeros ahead of the logical
          end, so that a sync over that room flushes data without growing
          the file: a reader must take NUL bytes past the last record as
          the end of the log.  [close] drops the zeros again.
          [append:true] continues at the end of the file as it stands, so a
          zero tail left by a crash must be truncated first. *)
  rename : string -> string -> unit;  (** Atomic replace. *)
  unlink : string -> unit;  (** Missing file is not an error. *)
  truncate : string -> int -> unit;
  fsync_dir : string -> unit;
      (** Fsync the directory containing [path], making a prior
          create/rename durable.  Best effort on backends where
          directories cannot be synced. *)
}

exception Crash
(** Raised by the {!Mem} backend when an injected crash point is reached.
    Everything not yet durable at that instant is lost (see {!Mem}); the
    test harness then "reboots" and runs recovery against what survived. *)

val unix : t
(** The real filesystem.  Its {!type-t.open_log} writes through the file
    descriptor and keeps zeros ahead of the logical end: 4 KiB at first,
    doubling per extension up to 256 KiB. *)

val with_retries : ?attempts:int -> ?backoff:(int -> unit) -> (unit -> 'a) -> 'a
(** Run [f], retrying on {!Errors.Io_error} up to [attempts] times
    (default 5) with [backoff attempt] between tries (default: exponential
    sleep starting at 2 ms).  Other exceptions — including {!Crash} —
    propagate immediately. *)

(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings; guards WAL v2
    batch payloads and wire frames against torn writes and bit rot.
    Checksums are unsigned 32-bit values held in an [int].  The table is
    built at module initialisation, so any domain may checksum at any
    time, and {!update} does not allocate. *)
module Crc32 : sig
  val update : int -> string -> int -> int -> int
  (** [update crc s pos len] continues the checksum [crc] over the [len]
      bytes of [s] starting at [pos]; [update 0] starts a fresh one.
      @raise Invalid_argument when the range is outside [s]. *)

  val string : ?crc:int -> string -> int
  (** [string s] is the checksum of [s]; pass [?crc] to continue a running
      checksum. *)

  val add_hex : Buffer.t -> int -> unit
  (** Append {!to_hex} of the checksum. *)

  val to_hex : int -> string
  (** Fixed-width lowercase hex, e.g. ["0a1b2c3d"]. *)
end

(** The fault-injecting in-memory backend.  Its {!type-t.open_log} is its
    plain append writer, with no zero tail, so a crash point's byte prefix
    is a prefix of the log itself. *)
module Mem : sig
  type fs

  val create : ?cache:bool -> unit -> fs
  (** A fresh empty filesystem.  With [~cache:false] (default,
      "writethrough") every write lands durably at once and an injected
      crash can only tear the write in flight — the model for torn-tail
      enumeration.  With [~cache:true] writes sit in a volatile page cache
      until [fsync] promotes them, and a crash drops everything volatile —
      the model for proving fsync placement. *)

  val storage : fs -> t

  val contents : fs -> string -> string
  (** Live view (durable + volatile), as a running process would read it. *)

  val durable : fs -> string -> string
  (** Post-crash view: only what survived.  [""] when missing. *)

  val set_file : fs -> string -> string -> unit
  (** Install durable contents directly (building crash-point fixtures). *)

  val files : fs -> string list  (** Existing file names, sorted. *)

  val reboot : fs -> fs
  (** A fresh, fault-free filesystem holding only the durable view of every
      file — the disk as the next process boot sees it. *)

  (** {2 Fault injection} *)

  val crash_after_bytes : fs -> int -> unit
  (** Let [n] more written bytes reach the store, tear the write in flight,
      then raise {!Crash} from that and every subsequent operation. *)

  val crash_after_ops : fs -> int -> unit
  (** Let [n] more mutating operations (write / fsync / rename / unlink /
      truncate / create / fsync_dir) complete, then raise {!Crash} from the
      next one on. *)

  val crash_after_reads : fs -> int -> unit
  (** Let [n] more {!type-t.read_file} calls complete, then raise {!Crash}
      from every subsequent read until {!clear_faults}.  Recovery
      ({!Wal.recover}) is a read-only pipeline, so this is the fault that
      interrupts it mid-delta-chain; write-side state is untouched. *)

  val fail_writes : fs -> int -> unit
  (** Make the next [n] writes raise {!Errors.Io_error} without landing any
      bytes (a transient fault; {!with_retries} recovers). *)

  val clear_faults : fs -> unit

  (** {2 Observability} *)

  val fsyncs : fs -> int  (** fsync calls (files only). *)

  val ops : fs -> int  (** mutating operations performed *)
end

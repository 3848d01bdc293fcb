open Types

let magic_v1 = "SENTINELWAL 1"
let magic_v2 = "SENTINELWAL 2"

type version = V1 | V2

(* Group-commit window: the coordinator coalesces up to [max_batch] commits
   arriving within [max_wait_us] of the group opening into one WAL batch and
   one fsync. *)
type group_commit = { max_batch : int; max_wait_us : int }

(* WAL retention under [compact]: how much of the (already-folded-into-the-
   base) log tail survives for forensics and point-in-time inspection. *)
type retention = Keep_none | Keep_bytes of int | Keep_since_seq of int

type t = {
  wal_db : db;
  path : string;
  storage : Storage.t;
  sync : bool;
  group : group_commit option;
  mutable w : Storage.writer;
  mutable version : version;
  (* sequence number the next batch will carry; monotone across the life of
     the log, never reset by checkpoints *)
  mutable next_seq : int;
  (* the open transaction's entries, each ending in a newline, and how many
     there are; empty outside a transaction *)
  txn : Buffer.t;
  mutable txn_n : int;
  (* where each open nesting level began in [txn], as (bytes, entries);
     innermost first *)
  mutable marks : (int * int) list;
  (* the open commit group: the committed entries, oldest first, start at
     [header_room] in [g_bytes] and run for [g_len] bytes; [g_n] entries
     from [g_txns] commits.  The batch header is written just before them
     when the group seals.  Nothing here has touched the disk yet. *)
  mutable g_bytes : Bytes.t;
  mutable g_len : int;
  mutable g_n : int;
  mutable g_txns : int;
  mutable g_opened_us : float; (* wall-clock when the group opened *)
  (* the logical clock: the highest value a written batch carries, the
     highest the open group carries, and the one the open transaction's
     commit entry carries; -1 for none *)
  mutable clock : int;
  mutable g_clock : int;
  mutable txn_clock : int;
  mutable n_batches : int;
  mutable n_entries : int;
  mutable attached : bool;
  head : Buffer.t; (* the header of the batch being sealed *)
}

let batches_written t = t.n_batches
let entries_written t = t.n_entries
let pending_commits t = t.g_txns

(* --- entry codec ----------------------------------------------------------- *)

let add_word buf w =
  Buffer.add_char buf ' ';
  Buffer.add_string buf w

let add_oid buf o =
  Buffer.add_char buf ' ';
  Persist.add_int buf (Oid.to_int o)

let encode_mutation buf = function
  | M_create (o, cls, attrs) ->
    Buffer.add_char buf 'c';
    add_oid buf o;
    add_word buf cls;
    List.iter
      (fun (name, v) ->
        add_word buf name;
        Buffer.add_char buf '=';
        Persist.add_value buf v)
      attrs
  | M_delete o ->
    Buffer.add_char buf 'd';
    add_oid buf o
  | M_set (o, name, v) ->
    Buffer.add_char buf 's';
    add_oid buf o;
    add_word buf name;
    Buffer.add_char buf ' ';
    Persist.add_value buf v
  | M_subscribe (r, c) ->
    Buffer.add_char buf '+';
    add_oid buf r;
    add_oid buf c
  | M_unsubscribe (r, c) ->
    Buffer.add_char buf '-';
    add_oid buf r;
    add_oid buf c
  | M_subscribe_class (cls, c) ->
    Buffer.add_string buf "c+";
    add_word buf cls;
    add_oid buf c
  | M_unsubscribe_class (cls, c) ->
    Buffer.add_string buf "c-";
    add_word buf cls;
    add_oid buf c
  | M_create_index (cls, attr, ordered) ->
    Buffer.add_string buf "ix";
    add_word buf cls;
    add_word buf attr;
    add_word buf (if ordered then "o" else "h")
  | M_drop_index (cls, attr) ->
    Buffer.add_string buf "dx";
    add_word buf cls;
    add_word buf attr
  | M_clock now ->
    Buffer.add_string buf "k ";
    Persist.add_int buf now

let parse_error fmt =
  Printf.ksprintf (fun s -> raise (Errors.Parse_error s)) fmt

let parse_oid w =
  match int_of_string_opt w with
  | Some n -> Oid.of_int n
  | None -> parse_error "wal: bad oid %S" w

let decode_mutation line =
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  match words with
  | "c" :: oid :: cls :: attrs ->
    let attr w =
      match String.index_opt w '=' with
      | Some i ->
        ( String.sub w 0 i,
          Persist.decode_value (String.sub w (i + 1) (String.length w - i - 1)) )
      | None -> parse_error "wal: bad attribute %S" w
    in
    M_create (parse_oid oid, cls, List.map attr attrs)
  | [ "d"; oid ] -> M_delete (parse_oid oid)
  | [ "s"; oid; name; v ] -> M_set (parse_oid oid, name, Persist.decode_value v)
  | [ "+"; r; c ] -> M_subscribe (parse_oid r, parse_oid c)
  | [ "-"; r; c ] -> M_unsubscribe (parse_oid r, parse_oid c)
  | [ "c+"; cls; c ] -> M_subscribe_class (cls, parse_oid c)
  | [ "c-"; cls; c ] -> M_unsubscribe_class (cls, parse_oid c)
  | [ "ix"; cls; attr; k ] ->
    let ordered =
      match k with
      | "o" -> true
      | "h" -> false
      | other -> parse_error "wal: bad index kind %S" other
    in
    M_create_index (cls, attr, ordered)
  | [ "dx"; cls; attr ] -> M_drop_index (cls, attr)
  | [ "k"; now ] -> (
    match int_of_string_opt now with
    | Some v -> M_clock v
    | None -> parse_error "wal: bad clock %S" now)
  | _ -> parse_error "wal: bad entry %S" line

(* --- log scanning ----------------------------------------------------------
   One parser serves both replay and attach-time tail repair.  Scanning never
   raises on damage past the header: it stops at the first torn or corrupt
   batch and reports how far the log is structurally sound, so recovery can
   apply the intact prefix and attach can truncate the wreckage. *)

type batch = {
  b_seq : int; (* 0 in v1 logs *)
  b_lines : string list;
  b_end : int; (* byte offset just past this batch *)
}

type scanned = {
  s_version : version;
  s_batches : batch list; (* in file order *)
  s_valid_end : int; (* offset just past the last intact batch *)
  s_checksum_failures : int;
  s_leftover : bool; (* damaged bytes beyond [s_valid_end] *)
}

let rec nul_from data i =
  i >= String.length data || (data.[i] = '\000' && nul_from data (i + 1))

let scan data =
  let len = String.length data in
  let next_line pos =
    if pos >= len then None
    else
      match String.index_from_opt data pos '\n' with
      | None -> None (* unterminated tail *)
      | Some i -> Some (String.sub data pos (i - pos), i + 1)
  in
  match next_line 0 with
  | None -> `Torn_header (* empty, or a crash mid-header: nothing durable *)
  | Some (l, p0) when l = magic_v1 || l = magic_v2 ->
    let version = if l = magic_v2 then V2 else V1 in
    let cksum_fail = ref 0 in
    (* exactly [k] payload lines, or None on a torn tail *)
    let rec payload k q lines =
      if k = 0 then Some (List.rev lines, q)
      else
        match next_line q with
        | None -> None
        | Some (pl, q') -> payload (k - 1) q' (pl :: lines)
    in
    let rec batches acc pos last_seq =
      match next_line pos with
      | None -> (List.rev acc, pos)
      | Some ("", p) -> batches acc p last_seq
      | Some (line, p) -> (
        let stop () = (List.rev acc, pos) in
        match version with
        | V2 -> (
          match String.split_on_char ' ' line with
          | [ "B"; seq_s; count_s; crc_s ] -> (
            match (int_of_string_opt seq_s, int_of_string_opt count_s) with
            | Some seq, Some count
              when count >= 0 && seq >= 1
                   && (match last_seq with None -> true | Some l -> seq = l + 1)
              -> (
              match payload count p [] with
              | None -> stop () (* torn mid-batch *)
              | Some (lines, q) -> (
                match next_line q with
                | Some ("E", q') ->
                  (* the payload lines are the bytes [p, q) of the log *)
                  if
                    String.equal crc_s
                      (Storage.Crc32.to_hex
                         (Storage.Crc32.update 0 data p (q - p)))
                  then
                    batches
                      ({ b_seq = seq; b_lines = lines; b_end = q' } :: acc)
                      q' (Some seq)
                  else begin
                    incr cksum_fail;
                    stop ()
                  end
                | _ -> stop ()))
            | _ -> stop ())
          | _ -> stop ())
        | V1 ->
          if line <> "B" then stop ()
          else
            let rec collect q lines =
              match next_line q with
              | None -> None
              | Some ("E", q') -> Some (List.rev lines, q')
              | Some (l, q') -> collect q' (l :: lines)
            in
            (match collect p [] with
            | None -> stop ()
            | Some (lines, q) ->
              batches ({ b_seq = 0; b_lines = lines; b_end = q } :: acc) q None))
    in
    let bs, valid_end = batches [] p0 None in
    `Ok
      {
        s_version = version;
        s_batches = bs;
        s_valid_end = valid_end;
        s_checksum_failures = !cksum_fail;
        (* zeros past the last batch are a log writer's unused room *)
        s_leftover = not (nul_from data valid_end);
      }
  | Some (l, _) -> parse_error "wal: bad magic %S" l

(* --- writing ----------------------------------------------------------------- *)

let count_fsync db = db.stats.wal_fsyncs <- db.stats.wal_fsyncs + 1

let st_wal_append =
  Obs.Metrics.register ~id:(Symbol.intern "wal.append") "wal.append"

let st_wal_checkpoint =
  Obs.Metrics.register ~id:(Symbol.intern "wal.checkpoint") "wal.checkpoint"

let st_wal_fsync =
  Obs.Metrics.register ~id:(Symbol.intern "wal.fsync") "wal.fsync"

let st_group_commit =
  Obs.Metrics.register ~id:(Symbol.intern "wal.group_commit") "wal.group_commit"

let st_wal_compact =
  Obs.Metrics.register ~id:(Symbol.intern "wal.compact") "wal.compact"

(* Quantity counters (Obs.Metrics.add / hit are self-gated on the metrics
   switch, so the disabled path stays one load + branch per site). *)
let st_coalesced =
  Obs.Metrics.register
    ~id:(Symbol.intern "wal.batches_coalesced")
    "wal.batches_coalesced"

let st_delta_bytes =
  Obs.Metrics.register ~id:(Symbol.intern "wal.delta_bytes") "wal.delta_bytes"

let st_compactions =
  Obs.Metrics.register ~id:(Symbol.intern "wal.compactions") "wal.compactions"

let fsync_raw t =
  t.w.Storage.fsync ();
  count_fsync t.wal_db

let fsync_writer t =
  if not !Obs.armed then fsync_raw t
  else begin
    let t0 = Obs.Metrics.enter st_wal_fsync in
    match fsync_raw t with
    | () -> Obs.Metrics.exit st_wal_fsync t0
    | exception e ->
      Obs.Metrics.exit st_wal_fsync t0;
      raise e
  end

(* Room before the group's entries for the longest batch header:
   "B <seq> <count> <crc>\n". *)
let header_room = 64

(* The group and transaction buffers are kept between batches up to this
   size; one grown past it by a large transaction is given back. *)
let kept_bytes = 65536

let clear_group t =
  if Bytes.length t.g_bytes > kept_bytes then
    t.g_bytes <- Bytes.create (header_room + 4096);
  t.g_len <- 0;
  t.g_n <- 0;
  t.g_txns <- 0;
  t.g_opened_us <- 0.;
  t.g_clock <- -1

(* Room in the group for [n] more entry bytes and the closing "E\n". *)
let reserve t n =
  let need = header_room + t.g_len + n + 2 in
  if Bytes.length t.g_bytes < need then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.g_bytes)) in
    Bytes.blit t.g_bytes header_room bigger header_room t.g_len;
    t.g_bytes <- bigger
  end

(* Sends outside any transaction tick the clock without a commit entry, so
   a batch written while the clock is past every value the log holds ends
   with one of its own. *)
let add_clock t =
  let now = t.wal_db.now in
  if now > max t.clock t.g_clock then begin
    let head = t.head in
    Buffer.clear head;
    encode_mutation head (M_clock now);
    Buffer.add_char head '\n';
    let n = Buffer.length head in
    reserve t n;
    Buffer.blit head 0 t.g_bytes (header_room + t.g_len) n;
    t.g_len <- t.g_len + n;
    t.g_n <- t.g_n + 1;
    t.g_clock <- now
  end

(* Write the group as one batch.  The group is cleared once the batch's
   bytes are in the log, before they are made durable: from then on it must
   not be written again, and a write that fails after its retries leaves it
   whole. *)
let write_group_raw t =
  if t.attached then begin
    add_clock t;
    let body = header_room and b = t.g_bytes in
    let head = t.head in
    Buffer.clear head;
    (match t.version with
    | V2 ->
      Buffer.add_string head "B ";
      Persist.add_int head t.next_seq;
      Buffer.add_char head ' ';
      Persist.add_int head t.g_n;
      Buffer.add_char head ' ';
      Storage.Crc32.add_hex head
        (Storage.Crc32.update 0 (Bytes.unsafe_to_string b) body t.g_len);
      Buffer.add_char head '\n'
    | V1 -> Buffer.add_string head "B\n");
    let first = body - Buffer.length head in
    Buffer.blit head 0 b first (Buffer.length head);
    Bytes.blit_string "E\n" 0 b (body + t.g_len) 2;
    let data = Bytes.sub_string b first (body + t.g_len + 2 - first) in
    (* one write per batch: a transient fault lands nothing, so the bounded
       retry cannot duplicate a partially-written batch *)
    Storage.with_retries (fun () -> t.w.Storage.write data);
    (* counters and the sequence move only once the batch is down *)
    t.n_batches <- t.n_batches + 1;
    t.n_entries <- t.n_entries + t.g_n;
    t.clock <- max t.clock t.g_clock;
    clear_group t;
    t.wal_db.stats.wal_bytes <- t.wal_db.stats.wal_bytes + String.length data;
    if t.version = V2 then begin
      t.wal_db.wal_applied_seq <- t.next_seq;
      t.next_seq <- t.next_seq + 1
    end;
    t.w.Storage.flush ();
    if t.sync then fsync_writer t
  end

let write_group t =
  if not !Obs.armed then write_group_raw t
  else begin
    let t0 = Obs.Metrics.enter st_wal_append in
    match write_group_raw t with
    | () -> Obs.Metrics.exit st_wal_append t0
    | exception e ->
      Obs.Metrics.exit st_wal_append t0;
      raise e
  end

(* --- group commit -----------------------------------------------------------
   With [~group_commit] the committed entries do not go to the disk one
   batch per transaction: they join the open group, and the whole group is
   written as one WAL batch — one sequence number, one CRC, one fsync —
   when it reaches [max_batch] commits, its window expires, or a durability
   point forces a seal ([sync], checkpoint, compact, detach).  Until then
   the group lives only in memory: a crash loses the open group wholesale
   and nothing else, so recovery still lands exactly on a batch boundary. *)

let seal_group_raw t =
  if t.g_txns > 0 then begin
    let txns = t.g_txns in
    write_group t;
    let st = t.wal_db.stats in
    st.group_commit_batches <- st.group_commit_batches + 1;
    (* commits beyond the first shared a batch (and an fsync) with it *)
    Obs.Metrics.add st_coalesced (txns - 1)
  end

let seal_group t =
  if t.g_txns > 0 then
    if not !Obs.armed then seal_group_raw t
    else begin
      let t0 = Obs.Metrics.enter st_group_commit in
      match seal_group_raw t with
      | () -> Obs.Metrics.exit st_group_commit t0
      | exception e ->
        Obs.Metrics.exit st_group_commit t0;
        raise e
    end

let now_us () = Unix.gettimeofday () *. 1e6

(* The open transaction's entries join the group. *)
let append_txn t =
  let n = Buffer.length t.txn in
  reserve t n;
  Buffer.blit t.txn 0 t.g_bytes (header_room + t.g_len) n;
  t.g_len <- t.g_len + n;
  t.g_n <- t.g_n + t.txn_n;
  t.g_txns <- t.g_txns + 1;
  t.g_clock <- max t.g_clock t.txn_clock;
  t.txn_clock <- -1;
  if n > kept_bytes then Buffer.reset t.txn else Buffer.clear t.txn;
  t.txn_n <- 0

(* One committed transaction's entries reach the log, either directly or
   through the group coordinator.  When that raises, the transaction's
   entries are dropped with it. *)
let commit_txn_raw t =
  match t.group with
  | None -> (
    append_txn t;
    (* without a group a failed write drops the batch, as it always has *)
    try write_group t
    with e ->
      clear_group t;
      raise e)
  | Some g ->
    (* a group left open for its whole window seals before new commits join
       it; a zero window has always passed, even within one clock tick *)
    if
      t.g_txns > 0
      && now_us () -. t.g_opened_us >= float_of_int g.max_wait_us
    then seal_group t;
    if t.g_txns = 0 then t.g_opened_us <- now_us ();
    append_txn t;
    if t.g_txns >= g.max_batch then seal_group t

let commit_txn t =
  try commit_txn_raw t
  with e ->
    Buffer.reset t.txn;
    t.txn_n <- 0;
    raise e

let on_event t event =
  if t.attached then
    match event with
    | J_begin -> t.marks <- (Buffer.length t.txn, t.txn_n) :: t.marks
    | J_mutation m ->
      (match m with M_clock c -> t.txn_clock <- c | _ -> ());
      encode_mutation t.txn m;
      Buffer.add_char t.txn '\n';
      t.txn_n <- t.txn_n + 1;
      if t.marks = [] then commit_txn t (* autocommit *)
    | J_commit_inner -> (
      match t.marks with _ :: (_ :: _ as rest) -> t.marks <- rest | _ -> ())
    | J_commit -> (
      match t.marks with
      | [ _ ] ->
        t.marks <- [];
        if t.txn_n > 0 then commit_txn t
      | _ -> ())
    | J_abort -> (
      match t.marks with
      | [] -> ()
      | (len, n) :: rest ->
        if rest = [] && Buffer.length t.txn > kept_bytes then Buffer.reset t.txn
        else Buffer.truncate t.txn len;
        t.txn_n <- n;
        t.marks <- rest)

(* Seal the open group, or write a clock-only batch when only the clock has
   moved since the last batch. *)
let seal_all t =
  if t.g_txns > 0 then seal_group t
  else if t.wal_db.now > t.clock then write_group t

(* Force everything committed so far, and the clock, onto the disk: seal the
   open group and, for a [sync:false] log, fsync the buffered writes. *)
let sync t =
  if not t.attached then
    raise (Errors.Transaction_error "cannot sync a detached journal");
  seal_all t;
  t.w.Storage.flush ();
  if not t.sync then fsync_writer t

(* --- attach / detach --------------------------------------------------------- *)

let init_log storage sync db path =
  let w = storage.Storage.open_log ~append:false path in
  Storage.with_retries (fun () -> w.Storage.write (magic_v2 ^ "\n"));
  w.Storage.flush ();
  if sync then begin
    w.Storage.fsync ();
    count_fsync db
  end;
  storage.Storage.fsync_dir path;
  w

let header_bytes = String.length magic_v2 + 1

let attach ?(storage = Storage.unix) ?(sync = true) ?group_commit db path =
  if db.on_journal <> None then
    raise (Errors.Transaction_error "a journal is already attached");
  if db.txns <> [] then
    raise (Errors.Transaction_error "cannot attach a journal mid-transaction");
  (match group_commit with
  | Some g when g.max_batch < 1 || g.max_wait_us < 0 ->
    invalid_arg "Wal.attach: bad group_commit window"
  | _ -> ());
  let fresh =
    (not (storage.Storage.exists path)) || storage.Storage.size path = 0
  in
  let w, version, next_seq, bytes =
    if fresh then
      (init_log storage sync db path, V2, db.wal_applied_seq + 1, header_bytes)
    else begin
      let data = storage.Storage.read_file path in
      match scan data with
      | `Torn_header ->
        (* a crash while creating the log: no batch was ever durable, so
           reinitialize in place *)
        (init_log storage sync db path, V2, db.wal_applied_seq + 1, header_bytes)
      | `Ok s ->
        (* repair: drop the torn or corrupt tail, and a crashed writer's
           zeros, so appended batches stay reachable by replay *)
        if s.s_valid_end < String.length data then
          storage.Storage.truncate path s.s_valid_end;
        let last =
          List.fold_left
            (fun acc b -> max acc b.b_seq)
            db.wal_applied_seq s.s_batches
        in
        ( storage.Storage.open_log ~append:true path,
          s.s_version,
          last + 1,
          s.s_valid_end )
    end
  in
  let t =
    {
      wal_db = db;
      path;
      storage;
      sync;
      group = group_commit;
      w;
      version;
      next_seq;
      txn = Buffer.create 256;
      txn_n = 0;
      marks = [];
      g_bytes = Bytes.create (header_room + 4096);
      g_len = 0;
      g_n = 0;
      g_txns = 0;
      g_opened_us = 0.;
      clock = db.now;
      g_clock = -1;
      txn_clock = -1;
      n_batches = 0;
      n_entries = 0;
      attached = true;
      head = Buffer.create header_room;
    }
  in
  db.stats.wal_bytes <- bytes;
  db.on_journal <- Some (on_event t);
  t

let detach t =
  if t.attached then begin
    seal_all t;
    t.attached <- false;
    t.wal_db.on_journal <- None;
    t.w.Storage.flush ();
    if t.sync then fsync_writer t;
    t.w.Storage.close ()
  end

(* --- checkpoint --------------------------------------------------------------- *)

let delta_path snapshot k = Printf.sprintf "%s.delta-%d" snapshot k

(* The storage backend has no directory listing, so the delta chain is
   discovered by probing [<snapshot>.delta-1], [-2], ... until the first
   missing index.  Stale files past a gap (a crashed compaction's leftovers)
   are invisible to recovery and get overwritten by later checkpoints. *)
let delta_files ?(storage = Storage.unix) ~snapshot () =
  let rec go k acc =
    let p = delta_path snapshot k in
    if not (storage.Storage.exists p) then List.rev acc
    else
      match Persist.delta_header ~storage p with
      | Some (prev, seq) -> go (k + 1) ((p, prev, seq) :: acc)
      | None -> List.rev acc
  in
  go 1 []

let next_delta_index storage snapshot =
  let rec go k =
    if storage.Storage.exists (delta_path snapshot k) then go (k + 1) else k
  in
  go 1

let remove_deltas storage snapshot =
  let rec go k =
    let p = delta_path snapshot k in
    if storage.Storage.exists p then begin
      storage.Storage.unlink p;
      go (k + 1)
    end
  in
  go 1;
  storage.Storage.fsync_dir snapshot

let guard_checkpoint t op =
  if not t.attached then
    raise
      (Errors.Transaction_error (Printf.sprintf "cannot %s a detached journal" op));
  if t.wal_db.txns <> [] then
    raise
      (Errors.Transaction_error
         (Printf.sprintf "cannot %s during a transaction" op))

let checkpoint_full_raw t ~snapshot =
  (* 1. Durable snapshot.  It embeds [walseq] — the sequence number of the
     last batch this store reflects — so a crash after this point cannot
     double-apply the not-yet-rotated log: replay skips batches at or below
     the marker. *)
  Persist.save ~storage:t.storage t.wal_db snapshot;
  (* 2. Rotate the log through a temp file + atomic rename: at every crash
     point the log on disk is either the full old one or the fresh empty
     one, never a torn truncation. *)
  t.w.Storage.close ();
  let tmp = Printf.sprintf "%s.rotate.%d" t.path (Unix.getpid ()) in
  let w = t.storage.Storage.open_writer ~append:false tmp in
  Storage.with_retries (fun () -> w.Storage.write (magic_v2 ^ "\n"));
  w.Storage.fsync ();
  count_fsync t.wal_db;
  w.Storage.close ();
  t.storage.Storage.rename tmp t.path;
  t.storage.Storage.fsync_dir t.path;
  t.w <- t.storage.Storage.open_log ~append:true t.path;
  (* rotation upgrades a v1-era log; the sequence keeps counting *)
  t.version <- V2;
  t.wal_db.stats.wal_bytes <- header_bytes;
  (* the new base covers everything any old delta held *)
  remove_deltas t.storage snapshot

let checkpoint_raw ?(mode = `Full) t ~snapshot =
  guard_checkpoint t "checkpoint";
  (* the snapshot must cover the open group, or its commits would be both
     outside the log's retained tail and outside the base *)
  seal_group t;
  match mode with
  | `Full -> checkpoint_full_raw t ~snapshot
  | `Delta ->
    let db = t.wal_db in
    let no_base =
      (not (t.storage.Storage.exists snapshot))
      || t.storage.Storage.size snapshot = 0
      (* snapshot_seq = 0: this store never saved or loaded a snapshot, so
         nothing on disk is a valid chain base for its dirty set *)
      || db.snapshot_seq = 0
    in
    if no_base then checkpoint_full_raw t ~snapshot
    else if db.wal_applied_seq = db.snapshot_seq then
      () (* nothing committed since the last chain element *)
    else begin
      let k = next_delta_index t.storage snapshot in
      let bytes = Persist.save_delta ~storage:t.storage db (delta_path snapshot k) in
      db.stats.delta_checkpoints <- db.stats.delta_checkpoints + 1;
      Obs.Metrics.add st_delta_bytes bytes
      (* the WAL is not rotated: deltas stay cheap because retention is
         compaction's job *)
    end

let checkpoint ?mode t ~snapshot =
  if not !Obs.armed then checkpoint_raw ?mode t ~snapshot
  else begin
    let t0 = Obs.Metrics.enter st_wal_checkpoint in
    match checkpoint_raw ?mode t ~snapshot with
    | () -> Obs.Metrics.exit st_wal_checkpoint t0
    | exception e ->
      Obs.Metrics.exit st_wal_checkpoint t0;
      raise e
  end

(* --- compaction --------------------------------------------------------------- *)

(* Fold the whole store — base, deltas, WAL — into a fresh base snapshot and
   truncate the log under [retention].  Every crash point leaves a
   recoverable disk: the new base appears atomically; until the log rewrite
   renames, the full old log coexists with it (replay skips what the base
   covers); stale deltas fail their chain check and are ignored. *)
let compact_raw ?(retention = Keep_none) t ~snapshot =
  guard_checkpoint t "compact";
  seal_group t;
  Persist.save ~storage:t.storage t.wal_db snapshot;
  t.w.Storage.close ();
  let data = t.storage.Storage.read_file t.path in
  let kept =
    match (t.version, scan data) with
    | V2, `Ok s ->
      let header_end =
        match String.index_opt data '\n' with Some i -> i + 1 | None -> 0
      in
      (* byte range of each batch, in file order *)
      let ranges =
        List.rev
          (fst
             (List.fold_left
                (fun (acc, start) b -> ((b, start, b.b_end) :: acc, b.b_end))
                ([], header_end) s.s_batches))
      in
      let wanted =
        match retention with
        | Keep_none -> []
        | Keep_since_seq seq -> List.filter (fun (b, _, _) -> b.b_seq >= seq) ranges
        | Keep_bytes budget ->
          (* the largest suffix of whole batches fitting the byte budget *)
          let rec suffix acc total = function
            | [] -> acc
            | ((_, start, stop) as r) :: older ->
              let total = total + (stop - start) in
              if total > budget then acc else suffix (r :: acc) total older
          in
          suffix [] 0 (List.rev ranges)
      in
      (* byte-exact copies keep the recorded CRCs valid *)
      List.map (fun (_, start, stop) -> String.sub data start (stop - start)) wanted
    | _ ->
      (* a v1-era log has no sequence numbers to retain against; the new
         base covers it all, so the rewritten log starts empty *)
      []
  in
  let body = String.concat "" ((magic_v2 ^ "\n") :: kept) in
  let tmp = Printf.sprintf "%s.compact.%d" t.path (Unix.getpid ()) in
  let w = t.storage.Storage.open_writer ~append:false tmp in
  Storage.with_retries (fun () -> w.Storage.write body);
  w.Storage.fsync ();
  count_fsync t.wal_db;
  w.Storage.close ();
  t.storage.Storage.rename tmp t.path;
  t.storage.Storage.fsync_dir t.path;
  t.w <- t.storage.Storage.open_log ~append:true t.path;
  t.version <- V2;
  t.wal_db.stats.wal_bytes <- String.length body;
  (* the deltas are folded into the new base *)
  remove_deltas t.storage snapshot;
  Obs.Metrics.hit st_compactions

let compact ?retention t ~snapshot =
  if not !Obs.armed then compact_raw ?retention t ~snapshot
  else begin
    let t0 = Obs.Metrics.enter st_wal_compact in
    match compact_raw ?retention t ~snapshot with
    | () -> Obs.Metrics.exit st_wal_compact t0
    | exception e ->
      Obs.Metrics.exit st_wal_compact t0;
      raise e
  end

(* --- replay ------------------------------------------------------------------- *)

let apply_mutation db m =
  match m with
  | M_create (oid, cls, attrs) ->
    (* force the allocator so replay reproduces the logged OID (aborted
       transactions may have burned identifiers in the original run) *)
    let saved = db.next_oid in
    db.next_oid <- Oid.to_int oid;
    let got = Db.new_object db ~attrs cls in
    if not (Oid.equal got oid) then
      parse_error "wal: replay allocated %s, expected %s" (Oid.to_string got)
        (Oid.to_string oid);
    (* never rewind the allocator below its pre-replay high-water mark, or a
       fresh allocation after recovery could collide with a live OID *)
    if saved > db.next_oid then db.next_oid <- saved
  | M_delete oid -> Db.delete_object db oid
  | M_set (oid, name, v) -> Db.set db oid name v
  | M_subscribe (r, c) -> Db.subscribe db ~reactive:r ~consumer:c
  | M_unsubscribe (r, c) -> Db.unsubscribe db ~reactive:r ~consumer:c
  | M_subscribe_class (cls, c) -> Db.subscribe_class db ~cls ~consumer:c
  | M_unsubscribe_class (cls, c) -> Db.unsubscribe_class db ~cls ~consumer:c
  | M_create_index (cls, attr, ordered) ->
    Db.create_index db ~kind:(if ordered then `Ordered else `Hash) ~cls ~attr ()
  | M_drop_index (cls, attr) -> Db.drop_index db ~cls ~attr
  | M_clock now -> Db.advance_clock db now

let replay ?(storage = Storage.unix) db path =
  if not (storage.Storage.exists path) then 0
  else begin
    let data = storage.Storage.read_file path in
    if String.length data = 0 then 0
    else
      match scan data with
      | `Torn_header -> 0
      | `Ok s ->
        let saved_journal = db.on_journal in
        db.on_journal <- None;
        Fun.protect
          ~finally:(fun () -> db.on_journal <- saved_journal)
          (fun () ->
            let applied = ref 0 and discarded = ref 0 in
            let stopped = ref false in
            List.iter
              (fun b ->
                if !stopped then incr discarded
                else if s.s_version = V2 && b.b_seq <= db.wal_applied_seq then
                  (* the loaded snapshot already contains this batch *)
                  ()
                else
                  match List.map decode_mutation b.b_lines with
                  | exception Errors.Parse_error _ ->
                    (* v1 logs have no checksum, so entry-level damage is
                       only caught here; stop cleanly at the first bad
                       batch instead of half-applying it *)
                    stopped := true;
                    incr discarded
                  | ms ->
                    (* apply the whole batch atomically; decoding happened
                       up front so damage cannot strand a half-applied
                       batch *)
                    List.iter (apply_mutation db) ms;
                    incr applied;
                    if s.s_version = V2 then db.wal_applied_seq <- b.b_seq)
              s.s_batches;
            if s.s_leftover then incr discarded;
            db.stats.wal_batches_replayed <-
              db.stats.wal_batches_replayed + !applied;
            db.stats.wal_batches_discarded <-
              db.stats.wal_batches_discarded + !discarded;
            db.stats.wal_checksum_failures <-
              db.stats.wal_checksum_failures + s.s_checksum_failures;
            !applied)
  end

(* --- full recovery ------------------------------------------------------------ *)

type recovery = {
  r_snapshot_loaded : bool;
  r_deltas_applied : int;
  r_batches_replayed : int;
}

(* Base snapshot, then the delta chain, then the WAL tail — the complete
   recovery pipeline for a store checkpointed incrementally.  The chain
   stops at the first missing or stale delta; that is always safe, because
   the WAL retains every batch past the base until a compaction folds them
   in (and compaction removes the deltas it folded).  [db] must be fresh
   (classes registered, no objects), as with {!Persist.load}. *)
let recover ?(storage = Storage.unix) db ~snapshot ~wal =
  let loaded =
    if storage.Storage.exists snapshot && storage.Storage.size snapshot > 0 then begin
      Persist.load ~storage db snapshot;
      true
    end
    else false
  in
  let deltas = ref 0 in
  (if loaded then
     try
       let rec go k =
         let p = delta_path snapshot k in
         if storage.Storage.exists p then
           match Persist.apply_delta ~storage db p with
           | `Applied ->
             incr deltas;
             go (k + 1)
           | `Stale -> ()
       in
       go 1
     with Errors.Parse_error _ ->
       (* a damaged delta body ends the chain; the WAL tail below re-applies
          everything past the last intact element *)
       ());
  let batches = replay ~storage db wal in
  {
    r_snapshot_loaded = loaded;
    r_deltas_applied = !deltas;
    r_batches_replayed = batches;
  }

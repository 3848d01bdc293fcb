(* The crash-point harness: every byte prefix and every operation-count
   crash of a banking workload log must recover to a committed prefix of
   states — never a torn mix, never a lost fsynced batch, never a batch
   applied twice across a checkpoint crash, and never a [Parse_error]
   escaping [Wal.replay]. *)

open Helpers
module Wal = Oodb.Wal
module Persist = Oodb.Persist
module Verify = Oodb.Verify
module Storage = Oodb.Storage
module Mem = Storage.Mem
module Banking = Workloads.Banking
module Prng = Workloads.Prng

let log_path = "bank.wal"
let snap_path = "bank.db"

let banking_db () =
  let db = Db.create () in
  Banking.install db;
  db

(* Observable state: every live object with class, attributes and
   subscriptions — the equality `Wal.replay` must reproduce. *)
let state db =
  List.concat_map
    (fun cls ->
      List.map
        (fun o -> (Oid.to_int o, cls, Db.attrs db o, Db.consumers_of db o))
        (Db.extent db ~deep:false cls))
    (List.sort compare (Db.classes db))

let atomically db f =
  match Transaction.atomically db f with Ok v -> v | Error e -> raise e

let replay_no_raise ?storage ~at db path =
  try Wal.replay ?storage db path
  with e ->
    Alcotest.failf "replay raised at %s: %s" at (Printexc.to_string e)

(* Run the banking workload against [fs], recording the durable log length
   and observable state at every batch boundary.  Returns the boundaries
   oldest first. *)
let run_workload ?(seed = 42) ?(accounts = 8) ~txns fs =
  let storage = Mem.storage fs in
  let db = banking_db () in
  let boundaries = ref [ (0, state db) ] in
  let record () =
    boundaries :=
      (String.length (Mem.durable fs log_path), state db) :: !boundaries
  in
  let wal = Wal.attach ~storage db log_path in
  record ();
  let rng = Prng.create seed in
  let accts =
    Array.init accounts (fun i ->
        let o =
          Db.new_object db Banking.account_class
            ~attrs:
              [
                ("owner", Value.Str (Printf.sprintf "acct-%d" i));
                ("balance", Value.Float (Prng.float rng 1000.));
              ]
        in
        record ();
        o)
  in
  List.iter
    (fun (acct, meth, args) ->
      atomically db (fun () -> ignore (Db.send db acct meth args));
      record ())
    (Banking.transactions rng accts ~n:txns ());
  Wal.detach wal;
  (db, List.rev !boundaries)

(* --- every byte prefix recovers to a committed prefix of states ---------- *)

let test_every_byte_prefix () =
  let fs = Mem.create () in
  (* writethrough: every byte lands durably, so truncating the file at any
     length is exactly the disk a mid-write crash leaves behind *)
  let _db, boundaries = run_workload ~txns:200 fs in
  let full = Mem.durable fs log_path in
  let len = String.length full in
  Alcotest.(check bool) "workload produced a real log" true (len > 10_000);
  let bnds = Array.of_list boundaries in
  let bi = ref 0 in
  for l = 0 to len do
    while !bi + 1 < Array.length bnds && fst bnds.(!bi + 1) <= l do
      incr bi
    done;
    let fs2 = Mem.create () in
    Mem.set_file fs2 log_path (String.sub full 0 l);
    let db2 = banking_db () in
    ignore
      (replay_no_raise ~storage:(Mem.storage fs2)
         ~at:(Printf.sprintf "prefix %d" l)
         db2 log_path);
    if state db2 <> snd bnds.(!bi) then
      Alcotest.failf
        "prefix %d: recovered state is not the committed prefix at byte %d" l
        (fst bnds.(!bi))
  done;
  (* the whole log replays to the final state *)
  Alcotest.(check bool) "full log reaches the final state" true
    (fst bnds.(Array.length bnds - 1) = len)

(* --- bit flips anywhere past the header stop recovery cleanly ------------ *)

let test_bit_flips_no_escape () =
  let fs = Mem.create () in
  let _db, boundaries = run_workload ~txns:60 fs in
  let full = Mem.durable fs log_path in
  let len = String.length full in
  let states = List.map snd boundaries in
  let b = Bytes.of_string full in
  let header = String.index full '\n' + 1 in
  let i = ref header in
  while !i < len do
    let orig = Bytes.get b !i in
    Bytes.set b !i (Char.chr ((Char.code orig + 1) land 0xff));
    let fs2 = Mem.create () in
    Mem.set_file fs2 log_path (Bytes.to_string b);
    let db2 = banking_db () in
    ignore
      (replay_no_raise ~storage:(Mem.storage fs2)
         ~at:(Printf.sprintf "flip %d" !i)
         db2 log_path);
    if not (List.exists (fun s -> s = state db2) states) then
      Alcotest.failf "flip at %d: recovered to a state never committed" !i;
    Bytes.set b !i orig;
    i := !i + 13
  done;
  (* a payload flip in the final batch is a counted checksum failure *)
  Bytes.set b (len - 4) '~';
  let fs2 = Mem.create () in
  Mem.set_file fs2 log_path (Bytes.to_string b);
  let db2 = banking_db () in
  ignore (replay_no_raise ~storage:(Mem.storage fs2) ~at:"payload flip" db2 log_path);
  Alcotest.(check int) "checksum failure counted" 1
    (Db.stats db2).Oodb.Types.wal_checksum_failures;
  Alcotest.(check int) "corrupt batch discarded" 1
    (Db.stats db2).Oodb.Types.wal_batches_discarded

(* --- with a volatile page cache, fsync makes every commit durable -------- *)

let test_fsync_makes_commits_durable () =
  let fs = Mem.create ~cache:true () in
  let db, boundaries = run_workload ~txns:60 fs in
  (* every boundary was captured from the durable view right after the
     commit returned: each must replay to exactly that committed state *)
  let full = Mem.durable fs log_path in
  List.iter
    (fun (bytes, st) ->
      let fs2 = Mem.create () in
      Mem.set_file fs2 log_path (String.sub full 0 bytes);
      let db2 = banking_db () in
      ignore
        (replay_no_raise ~storage:(Mem.storage fs2)
           ~at:(Printf.sprintf "committed boundary %d" bytes)
           db2 log_path);
      if state db2 <> st then
        Alcotest.failf "committed batch lost at boundary %d" bytes)
    boundaries;
  Alcotest.(check int) "every fsync counted in db stats"
    (Mem.fsyncs fs)
    (Db.stats db).Oodb.Types.wal_fsyncs

(* --- checkpoint: a crash after any operation count recovers exactly ------ *)

let run_to_checkpoint crash_ops =
  let fs = Mem.create ~cache:true () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let rng = Prng.create 7 in
  let accts =
    Array.init 6 (fun i ->
        Db.new_object db Banking.account_class
          ~attrs:
            [
              ("owner", Value.Str (Printf.sprintf "acct-%d" i));
              ("balance", Value.Float (Prng.float rng 1000.));
            ])
  in
  List.iter
    (fun (acct, meth, args) ->
      atomically db (fun () -> ignore (Db.send db acct meth args)))
    (Banking.transactions rng accts ~n:30 ());
  let committed = state db in
  Mem.crash_after_ops fs crash_ops;
  match Wal.checkpoint wal ~snapshot:snap_path with
  | () -> (fs, db, wal, committed, `Completed)
  | exception Storage.Crash -> (fs, db, wal, committed, `Crashed)

let recover_from fs =
  let fs' = Mem.reboot fs in
  let storage = Mem.storage fs' in
  let db = banking_db () in
  if Mem.durable fs' snap_path <> "" then Persist.load ~storage db snap_path;
  ignore (replay_no_raise ~storage ~at:"post-checkpoint-crash" db log_path);
  db

let max_oid db =
  List.fold_left
    (fun acc (o, _, _, _) -> max acc o)
    0 (state db)

let test_checkpoint_crash_points () =
  let n = ref 0 in
  let completed = ref false in
  while not !completed do
    if !n > 500 then Alcotest.fail "checkpoint never completed";
    let fs, _db, _wal, committed, outcome = run_to_checkpoint !n in
    if outcome = `Completed then completed := true;
    let db2 = recover_from fs in
    Verify.check_exn ~quiescent:true db2;
    if state db2 <> committed then
      Alcotest.failf
        "crash after %d checkpoint ops: recovery lost or double-applied a batch"
        !n;
    (* the OID allocator must come back past every live object *)
    let high = max_oid db2 in
    let fresh = Db.new_object db2 Banking.account_class in
    if Oid.to_int fresh <= high then
      Alcotest.failf "crash after %d ops: fresh OID %d collides (max live %d)"
        !n (Oid.to_int fresh) high;
    incr n
  done;
  Alcotest.(check bool) "enumerated a real operation sequence" true (!n > 10)

(* --- group commit: only whole sealed groups survive a crash -------------- *)

(* Like [run_workload], but commits pass through the group-commit
   coordinator, so the durable length only moves at a seal.  Boundaries are
   recorded when the durable length changed: each is (bytes, state as of
   the last commit the seal covered). *)
let run_grouped_workload ?(seed = 42) ?(accounts = 8) ~txns fs =
  let storage = Mem.storage fs in
  let db = banking_db () in
  let boundaries = ref [ (0, state db) ] in
  let record () =
    let len = String.length (Mem.durable fs log_path) in
    match !boundaries with
    | (l, _) :: _ when l = len -> () (* buffered in the open group *)
    | _ -> boundaries := (len, state db) :: !boundaries
  in
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 4; max_wait_us = max_int }
      db log_path
  in
  record ();
  let rng = Prng.create seed in
  let accts =
    Array.init accounts (fun i ->
        let o =
          Db.new_object db Banking.account_class
            ~attrs:
              [
                ("owner", Value.Str (Printf.sprintf "acct-%d" i));
                ("balance", Value.Float (Prng.float rng 1000.));
              ]
        in
        record ();
        o)
  in
  let commits = ref accounts in
  List.iter
    (fun (acct, meth, args) ->
      atomically db (fun () -> ignore (Db.send db acct meth args));
      incr commits;
      record ())
    (Banking.transactions rng accts ~n:txns ());
  Wal.detach wal;
  record ();
  (!commits, List.rev !boundaries)

let test_group_commit_byte_prefix () =
  let fs = Mem.create () in
  let commits, boundaries = run_grouped_workload ~txns:200 fs in
  let full = Mem.durable fs log_path in
  let len = String.length full in
  (* coalescing really happened: far fewer seal boundaries than commits *)
  let seals = List.length boundaries - 2 (* initial + attach records *) in
  Alcotest.(check bool)
    (Printf.sprintf "%d commits sealed into %d groups" commits seals)
    true
    (seals * 3 < commits);
  let bnds = Array.of_list boundaries in
  let bi = ref 0 in
  for l = 0 to len do
    while !bi + 1 < Array.length bnds && fst bnds.(!bi + 1) <= l do
      incr bi
    done;
    let fs2 = Mem.create () in
    Mem.set_file fs2 log_path (String.sub full 0 l);
    let db2 = banking_db () in
    ignore
      (replay_no_raise ~storage:(Mem.storage fs2)
         ~at:(Printf.sprintf "grouped prefix %d" l)
         db2 log_path);
    (* recovery lands exactly on the greatest seal at or below the crash
       point: commits coalesced into a torn group vanish wholesale *)
    if state db2 <> snd bnds.(!bi) then
      Alcotest.failf
        "grouped prefix %d: recovered state is not the seal boundary at %d" l
        (fst bnds.(!bi))
  done;
  Alcotest.(check bool) "full log reaches the final state" true
    (fst bnds.(Array.length bnds - 1) = len)

(* --- delta checkpoint: a crash after any operation count recovers -------- *)

(* Recovery through the full pipeline: base snapshot + delta chain + WAL
   tail, exactly what a restarted process would run. *)
let recover_full fs =
  let fs' = Mem.reboot fs in
  let storage = Mem.storage fs' in
  let db = banking_db () in
  (try ignore (Wal.recover ~storage db ~snapshot:snap_path ~wal:log_path)
   with e ->
     Alcotest.failf "Wal.recover raised: %s" (Printexc.to_string e));
  db

let run_to_delta_checkpoint crash_ops =
  let fs = Mem.create ~cache:true () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let rng = Prng.create 11 in
  let accts =
    Array.init 6 (fun i ->
        Db.new_object db Banking.account_class
          ~attrs:
            [
              ("owner", Value.Str (Printf.sprintf "acct-%d" i));
              ("balance", Value.Float (Prng.float rng 1000.));
            ])
  in
  let run n =
    List.iter
      (fun (acct, meth, args) ->
        atomically db (fun () -> ignore (Db.send db acct meth args)))
      (Banking.transactions rng accts ~n ())
  in
  run 20;
  Wal.checkpoint wal ~snapshot:snap_path;
  (* base *)
  run 10;
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  (* delta-1 completed; the crash hits while delta-2 goes down *)
  run 10;
  let committed = state db in
  Mem.crash_after_ops fs crash_ops;
  match Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path with
  | () -> (fs, committed, `Completed)
  | exception Storage.Crash -> (fs, committed, `Crashed)

let test_delta_checkpoint_crash_points () =
  let n = ref 0 in
  let completed = ref false in
  while not !completed do
    if !n > 500 then Alcotest.fail "delta checkpoint never completed";
    let fs, committed, outcome = run_to_delta_checkpoint !n in
    if outcome = `Completed then completed := true;
    let db2 = recover_full fs in
    Verify.check_exn ~quiescent:true db2;
    if state db2 <> committed then
      Alcotest.failf
        "crash after %d delta-checkpoint ops: recovery diverged from committed"
        !n;
    let high = max_oid db2 in
    let fresh = Db.new_object db2 Banking.account_class in
    if Oid.to_int fresh <= high then
      Alcotest.failf "crash after %d ops: fresh OID %d collides (max live %d)"
        !n (Oid.to_int fresh) high;
    incr n
  done;
  Alcotest.(check bool) "enumerated a real operation sequence" true (!n > 2)

(* --- a crash during recovery itself: the second recovery converges ------- *)

(* Recovery reads the base snapshot, the delta chain, then the WAL tail.  A
   process can die mid-recovery too (the supervisor restarts a shard whose
   init is itself recovering); since recovery never writes, an interrupted
   attempt must leave the disk exactly as it found it, and simply running
   recovery again from the top must converge to the committed state. *)
let test_crash_during_recovery () =
  (* build a store with every pipeline stage populated: base + two deltas +
     a live WAL tail *)
  let fs = Mem.create ~cache:true () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let rng = Prng.create 17 in
  let accts =
    Array.init 6 (fun i ->
        Db.new_object db Banking.account_class
          ~attrs:
            [
              ("owner", Value.Str (Printf.sprintf "acct-%d" i));
              ("balance", Value.Float (Prng.float rng 1000.));
            ])
  in
  let run n =
    List.iter
      (fun (acct, meth, args) ->
        atomically db (fun () -> ignore (Db.send db acct meth args)))
      (Banking.transactions rng accts ~n ())
  in
  run 20;
  Wal.checkpoint wal ~snapshot:snap_path;
  run 10;
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  run 10;
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  run 5;
  Wal.detach wal;
  let committed = state db in
  let durable_view fs =
    List.map (fun p -> (p, Mem.durable fs p)) (Mem.files fs)
  in
  let n = ref 0 in
  let completed = ref false in
  while not !completed do
    if !n > 200 then Alcotest.fail "recovery never completed";
    let fs' = Mem.reboot fs in
    let before = durable_view fs' in
    Mem.crash_after_reads fs' !n;
    let db2 = banking_db () in
    (match
       Wal.recover ~storage:(Mem.storage fs') db2 ~snapshot:snap_path
         ~wal:log_path
     with
    | _ -> completed := true
    | exception Storage.Crash ->
      (* the interrupted attempt is read-only: disk untouched *)
      if durable_view fs' <> before then
        Alcotest.failf "crash after %d reads: recovery mutated the store" !n;
      Mem.clear_faults fs';
      let db3 = banking_db () in
      (match
         Wal.recover ~storage:(Mem.storage fs') db3 ~snapshot:snap_path
           ~wal:log_path
       with
      | _ -> ()
      | exception e ->
        Alcotest.failf "second recovery after %d reads raised: %s" !n
          (Printexc.to_string e));
      Verify.check_exn ~quiescent:true db3;
      if state db3 <> committed then
        Alcotest.failf
          "crash after %d reads: second recovery diverged from committed" !n);
    if !completed && state db2 <> committed then
      Alcotest.failf "uninterrupted recovery diverged from committed";
    incr n
  done;
  Alcotest.(check bool) "enumerated real read crash points" true (!n > 2)

(* --- compaction: a crash after any operation count recovers -------------- *)

let run_to_compact crash_ops =
  let fs = Mem.create ~cache:true () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let rng = Prng.create 13 in
  let accts =
    Array.init 6 (fun i ->
        Db.new_object db Banking.account_class
          ~attrs:
            [
              ("owner", Value.Str (Printf.sprintf "acct-%d" i));
              ("balance", Value.Float (Prng.float rng 1000.));
            ])
  in
  let run n =
    List.iter
      (fun (acct, meth, args) ->
        atomically db (fun () -> ignore (Db.send db acct meth args)))
      (Banking.transactions rng accts ~n ())
  in
  run 15;
  Wal.checkpoint wal ~snapshot:snap_path;
  run 8;
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  run 8;
  let committed = state db in
  Mem.crash_after_ops fs crash_ops;
  match Wal.compact wal ~snapshot:snap_path with
  | () -> (fs, committed, `Completed)
  | exception Storage.Crash -> (fs, committed, `Crashed)

let test_compaction_crash_points () =
  let n = ref 0 in
  let completed = ref false in
  while not !completed do
    if !n > 500 then Alcotest.fail "compaction never completed";
    let fs, committed, outcome = run_to_compact !n in
    let db2 = recover_full fs in
    Verify.check_exn ~quiescent:true db2;
    if state db2 <> committed then
      Alcotest.failf
        "crash after %d compaction ops: recovery diverged from committed" !n;
    if outcome = `Completed then begin
      completed := true;
      (* the completed compaction truncated the log and removed the chain *)
      let fs' = Mem.reboot fs in
      Alcotest.(check int) "log truncated to the header"
        (String.length "SENTINELWAL 2\n")
        (String.length (Mem.durable fs' log_path));
      Alcotest.(check int) "delta chain removed" 0
        (List.length
           (Wal.delta_files ~storage:(Mem.storage fs') ~snapshot:snap_path ()))
    end;
    incr n
  done;
  Alcotest.(check bool) "enumerated a real operation sequence" true (!n > 2)

(* --- transient write faults are retried, durably ------------------------- *)

let test_transient_faults_retried () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let a = Db.new_object db Banking.account_class in
  Mem.fail_writes fs 2;
  atomically db (fun () -> Db.set db a "balance" (Value.Float 5.));
  Wal.detach wal;
  let db2 = banking_db () in
  Alcotest.(check int) "both batches durable despite the faults" 2
    (replay_no_raise ~storage ~at:"transient" db2 log_path);
  Alcotest.check value "state" (Value.Float 5.) (Db.get db2 a "balance")

(* --- attach repairs a torn tail so later appends stay reachable ---------- *)

let test_attach_repairs_torn_tail () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = banking_db () in
  let wal = Wal.attach ~storage db log_path in
  let a = Db.new_object db Banking.account_class in
  Db.set db a "balance" (Value.Float 20.);
  let good = String.length (Mem.durable fs log_path) in
  Db.set db a "balance" (Value.Float 30.);
  Wal.detach wal;
  let full = Mem.durable fs log_path in
  let fs2 = Mem.create () in
  let storage2 = Mem.storage fs2 in
  Mem.set_file fs2 log_path (String.sub full 0 (good + 7));
  let db2 = banking_db () in
  ignore (replay_no_raise ~storage:storage2 ~at:"torn tail" db2 log_path);
  Alcotest.check value "recovered to the last boundary" (Value.Float 20.)
    (Db.get db2 a "balance");
  let wal2 = Wal.attach ~storage:storage2 db2 log_path in
  Db.set db2 a "balance" (Value.Float 40.);
  Wal.detach wal2;
  let db3 = banking_db () in
  Alcotest.(check int) "repaired log replays whole" 3
    (replay_no_raise ~storage:storage2 ~at:"after repair" db3 log_path);
  Alcotest.check value "append after repair" (Value.Float 40.)
    (Db.get db3 a "balance");
  Verify.check_exn ~quiescent:true db3

(* --- rule lifecycle: a crash leaves each rule absent or whole ---------------- *)

let rules_log = "rules.wal"

let rule_system db =
  Banking.install db;
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  sys

(* Outside any transaction, create rule "old" monitoring two accounts and
   the account class, crash the storage after [crash_ops] more operations,
   then create "new" with the same subscriptions and delete "old". *)
let run_rule_lifecycle crash_ops =
  let fs = Mem.create () in
  let db = Db.create () in
  let sys = rule_system db in
  ignore (System.attach_wal ~storage:(Mem.storage fs) sys rules_log);
  let account owner =
    Db.new_object db Banking.account_class ~attrs:[ ("owner", Value.Str owner) ]
  in
  let accounts = [ account "a"; account "b" ] in
  let create name =
    ignore
      (System.create_rule sys ~name ~monitor:accounts
         ~monitor_classes:[ Banking.account_class ]
         ~event:(Expr.eom ~cls:Banking.account_class "deposit")
         ~condition:"true" ~action:"noop" ())
  in
  create "old";
  Mem.crash_after_ops fs crash_ops;
  match
    create "new";
    System.delete_rule sys (Option.get (System.find_rule sys "old"))
  with
  | () -> (fs, accounts, `Completed)
  | exception Storage.Crash -> (fs, accounts, `Crashed)

let test_rule_lifecycle_crash_points () =
  let n = ref 0 and completed = ref false in
  while not !completed do
    if !n > 100 then Alcotest.fail "rule lifecycle never completed";
    let fs, accounts, outcome = run_rule_lifecycle !n in
    completed := outcome = `Completed;
    let fs' = Mem.reboot fs in
    let db = Db.create () in
    let sys = rule_system db in
    ignore
      (Wal.recover ~storage:(Mem.storage fs') db ~snapshot:"rules.db" ~wal:rules_log);
    System.rehydrate sys;
    Verify.check_exn ~quiescent:true db;
    let subscribed r =
      List.map (fun a -> List.exists (Oid.equal r) (Db.consumers_of db a)) accounts
      @ [ List.exists (Oid.equal r) (Db.class_consumers_of db Banking.account_class) ]
    in
    let rules = System.rules sys in
    List.iter
      (fun r ->
        if List.mem false (subscribed r) then
          Alcotest.failf "crash after %d ops: rule %s recovered without all of its \
                          subscriptions" !n (Oid.to_string r))
      rules;
    (* an absent rule leaves no subscription behind *)
    List.iter
      (fun c ->
        if not (Db.exists db c) then
          Alcotest.failf "crash after %d ops: a subscription names missing %s" !n
            (Oid.to_string c))
      (Db.class_consumers_of db Banking.account_class
      @ List.concat_map (Db.consumers_of db) accounts);
    if !completed then
      Alcotest.(check (list string)) "completed: only the new rule" [ "new" ]
        (List.map (fun r -> (System.rule_info sys r).Sentinel.Rule.name) rules);
    incr n
  done;
  Alcotest.(check bool) "enumerated a real operation sequence" true (!n > 2)

let suite =
  [
    test "every byte prefix recovers" test_every_byte_prefix;
    test "bit flips never escape replay" test_bit_flips_no_escape;
    test "fsync makes every commit durable" test_fsync_makes_commits_durable;
    test "checkpoint crash points" test_checkpoint_crash_points;
    test "group commit: every byte prefix recovers"
      test_group_commit_byte_prefix;
    test "delta checkpoint crash points" test_delta_checkpoint_crash_points;
    test "crash during recovery: second recovery converges"
      test_crash_during_recovery;
    test "compaction crash points" test_compaction_crash_points;
    test "transient write faults retried" test_transient_faults_retried;
    test "attach repairs a torn tail" test_attach_repairs_torn_tail;
    test "rule lifecycle crash points: each rule absent or whole"
      test_rule_lifecycle_crash_points;
  ]

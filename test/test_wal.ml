open Helpers
module Wal = Oodb.Wal
module Persist = Oodb.Persist

let with_tmp f =
  let path = Filename.temp_file "sentinel_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let fresh_db () =
  let db = employee_db () in
  let _sys = System.create db in
  db

let snapshot db =
  List.concat_map
    (fun cls ->
      List.map
        (fun o -> (Oid.to_int o, cls, Db.attrs db o, Db.consumers_of db o))
        (Db.extent db ~deep:false cls))
    (List.sort compare (Db.classes db))

let recover path =
  let db = fresh_db () in
  let applied = Wal.replay db path in
  (db, applied)

let test_autocommit_logging () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~name:"ann" ~salary:5. in
      Db.set db e "salary" (Value.Float 10.);
      let e2 = new_employee db in
      Db.delete_object db e2;
      Wal.detach wal;
      let db2, applied = recover path in
      Alcotest.(check int) "four autocommit batches" 4 applied;
      Alcotest.(check bool) "object restored" true (Db.exists db2 e);
      Alcotest.check value "attr restored" (Value.Float 10.) (Db.get db2 e "salary");
      Alcotest.(check bool) "deleted stays deleted" false (Db.exists db2 e2);
      Alcotest.(check bool) "full state equal" true (snapshot db = snapshot db2))

let test_committed_txn_replayed () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      Transaction.begin_ db;
      let e = new_employee db ~salary:1. in
      Db.set db e "salary" (Value.Float 2.);
      Transaction.commit db;
      Wal.detach wal;
      let db2, applied = recover path in
      Alcotest.(check int) "one batch" 1 applied;
      Alcotest.check value "committed state" (Value.Float 2.) (Db.get db2 e "salary"))

let test_aborted_txn_not_logged () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let keeper = new_employee db ~salary:1. in
      Transaction.begin_ db;
      ignore (new_employee db);
      Db.set db keeper "salary" (Value.Float 99.);
      Transaction.abort db;
      (* OIDs burned by the abort must not break later replay *)
      let after = new_employee db ~salary:7. in
      Wal.detach wal;
      let db2, _ = recover path in
      Alcotest.check value "abort invisible" (Value.Float 1.)
        (Db.get db2 keeper "salary");
      Alcotest.(check bool) "post-abort object restored with same oid" true
        (Db.exists db2 after);
      Alcotest.check value "its attr" (Value.Float 7.) (Db.get db2 after "salary");
      Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2))

let test_inner_abort_partial () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Transaction.begin_ db;
      Db.set db e "salary" (Value.Float 2.);
      Transaction.begin_ db;
      Db.set db e "salary" (Value.Float 3.);
      Transaction.abort db; (* inner only *)
      Transaction.begin_ db;
      Db.set db e "income" (Value.Float 4.);
      Transaction.commit db; (* inner commit *)
      Transaction.commit db;
      Wal.detach wal;
      let db2, _ = recover path in
      Alcotest.check value "outer write survived" (Value.Float 2.)
        (Db.get db2 e "salary");
      Alcotest.check value "inner-committed write survived" (Value.Float 4.)
        (Db.get db2 e "income");
      Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2))

let test_subscriptions_and_indexes_replayed () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let sys = System.create (Db.create ()) in
      ignore sys;
      let wal = Wal.attach db path in
      let e = new_employee db in
      let consumer = new_employee db in
      Db.subscribe db ~reactive:e ~consumer;
      Db.subscribe_class db ~cls:"manager" ~consumer;
      Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
      Wal.detach wal;
      let db2, _ = recover path in
      Alcotest.(check (list oid)) "instance sub" [ consumer ]
        (Db.consumers_of db2 e);
      Alcotest.(check (list oid)) "class sub" [ consumer ]
        (Db.class_consumers_of db2 "manager");
      Alcotest.(check bool) "ordered index back" true
        (Db.index_kind db2 ~cls:"employee" ~attr:"salary" = Some `Ordered))

let test_torn_tail_ignored () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Db.set db e "salary" (Value.Float 2.);
      Wal.detach wal;
      (* simulate a crash mid-batch: append an unterminated batch *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "B\ns 1 salary f:0x1.8p1\n"; (* no E *)
      close_out oc;
      let db2, applied = recover path in
      Alcotest.(check int) "only complete batches" 2 applied;
      Alcotest.check value "torn write discarded" (Value.Float 2.)
        (Db.get db2 e "salary"))

let test_checkpoint_truncates () =
  with_tmp (fun wal_path ->
      with_tmp (fun snap_path ->
          let db = fresh_db () in
          let wal = Wal.attach db wal_path in
          let e = new_employee db ~salary:1. in
          Wal.checkpoint wal ~snapshot:snap_path;
          (* post-checkpoint activity lands in the fresh log *)
          Db.set db e "salary" (Value.Float 5.);
          Wal.detach wal;
          (* recovery: snapshot + log *)
          let db2 = fresh_db () in
          Oodb.Persist.load db2 snap_path;
          let applied = Wal.replay db2 wal_path in
          Alcotest.(check int) "only the post-checkpoint batch" 1 applied;
          Alcotest.check value "final state" (Value.Float 5.)
            (Db.get db2 e "salary")))

let test_rule_abort_keeps_log_clean () =
  with_tmp (fun path ->
      (* a rule that aborts the transaction: the WAL must contain nothing
         from the aborted attempt *)
      let db = employee_db () in
      let sys = System.create db in
      let e = new_employee db ~salary:10. in
      ignore
        (System.create_rule sys ~monitor:[ e ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true" ~action:"abort" ());
      let wal = Wal.attach db path in
      (match
         Transaction.atomically db (fun () ->
             ignore (Db.send db e "set_salary" [ Value.Float 999. ]))
       with
      | Ok () -> Alcotest.fail "expected abort"
      | Error (Errors.Rule_abort _) -> ()
      | Error exn -> raise exn);
      Alcotest.(check int) "nothing written" 0 (Wal.batches_written wal);
      Wal.detach wal)

let test_attach_misuse () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      check_raises_any "double attach" (fun () -> ignore (Wal.attach db path));
      Wal.detach wal;
      Wal.detach wal; (* idempotent *)
      Transaction.begin_ db;
      check_raises_any "attach mid-txn" (fun () -> ignore (Wal.attach db path));
      Transaction.abort db)

let test_missing_log_is_empty () =
  let db = fresh_db () in
  Alcotest.(check int) "no file, no batches" 0
    (Wal.replay db "/nonexistent/definitely_missing.wal")

let test_attach_validates_magic () =
  with_tmp (fun bad ->
      with_tmp (fun good ->
          Out_channel.with_open_bin bad (fun oc ->
              Out_channel.output_string oc "NOT A WAL FILE\njunk\n");
          let db = fresh_db () in
          (match Wal.attach db bad with
          | exception Errors.Parse_error _ -> ()
          | _ -> Alcotest.fail "expected Parse_error on foreign magic");
          (* the failed attach must not leave a journal installed *)
          let wal = Wal.attach db good in
          Wal.detach wal))

let test_v1_log_compatible () =
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            "SENTINELWAL 1\nB\nc 1 employee name=s:a salary=f:0x1p0\nE\nB\ns 1 salary f:0x1p3\nE\n");
      let db2, applied = recover path in
      Alcotest.(check int) "both v1 batches" 2 applied;
      Alcotest.check value "v1 state" (Value.Float 8.)
        (Db.get db2 (Oid.of_int 1) "salary");
      (* appending to a v1 log keeps it replayable end to end *)
      let wal = Wal.attach db2 path in
      Db.set db2 (Oid.of_int 1) "salary" (Value.Float 9.);
      Wal.detach wal;
      let db3, applied3 = recover path in
      Alcotest.(check int) "appended batch replays" 3 applied3;
      Alcotest.check value "appended state" (Value.Float 9.)
        (Db.get db3 (Oid.of_int 1) "salary"))

let test_bitflip_tail_discarded () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Db.set db e "salary" (Value.Float 2.);
      Db.set db e "salary" (Value.Float 3.);
      Wal.detach wal;
      (* flip a byte inside the last batch's payload *)
      let data = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string data in
      let i = String.rindex data 'f' in
      Bytes.set b i 'g';
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let db2 = fresh_db () in
      let applied = Wal.replay db2 path in
      Alcotest.(check int) "stops before the corrupt batch" 2 applied;
      Alcotest.check value "state at last good batch" (Value.Float 2.)
        (Db.get db2 e "salary");
      Alcotest.(check int) "checksum failure counted" 1
        (Db.stats db2).Oodb.Types.wal_checksum_failures;
      Alcotest.(check int) "discard counted" 1
        (Db.stats db2).Oodb.Types.wal_batches_discarded)

let test_counters_only_after_durable_write () =
  let fs = Oodb.Storage.Mem.create () in
  let storage = Oodb.Storage.Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db "log.wal" in
  (* exhaust the bounded retry: the write fails for good *)
  Oodb.Storage.Mem.fail_writes fs 99;
  (match new_employee db with
  | exception Errors.Io_error _ -> ()
  | _ -> Alcotest.fail "expected Io_error once retries are exhausted");
  Alcotest.(check int) "no batch counted" 0 (Wal.batches_written wal);
  Alcotest.(check int) "no entries counted" 0 (Wal.entries_written wal);
  Oodb.Storage.Mem.clear_faults fs;
  (* a transient fault within the retry budget recovers and counts once *)
  Oodb.Storage.Mem.fail_writes fs 2;
  let e = new_employee db ~salary:3. in
  Alcotest.(check int) "one durable batch" 1 (Wal.batches_written wal);
  Wal.detach wal;
  (* a detached journal never moves its counters again *)
  ignore (new_employee db);
  Alcotest.(check int) "frozen after detach" 1 (Wal.batches_written wal);
  let db2 = fresh_db () in
  let applied = Wal.replay ~storage db2 "log.wal" in
  Alcotest.(check int) "the durable batch replays" 1 applied;
  Alcotest.check value "its state" (Value.Float 3.) (Db.get db2 e "salary")

(* A group whose seal fails for good stays open: the next seal writes it,
   once, and recovery rebuilds it. *)
let test_group_commit_failed_seal_keeps_group () =
  let fs = Oodb.Storage.Mem.create () in
  let storage = Oodb.Storage.Mem.storage fs in
  let db = fresh_db () in
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 100; max_wait_us = max_int }
      db "log.wal"
  in
  let e = new_employee db ~salary:7. in
  Oodb.Storage.Mem.fail_writes fs 99;
  (match Wal.sync wal with
  | exception Errors.Io_error _ -> ()
  | () -> Alcotest.fail "expected Io_error once retries are exhausted");
  Alcotest.(check int) "nothing written" 0 (Wal.batches_written wal);
  Alcotest.(check int) "the group is still open" 1 (Wal.pending_commits wal);
  Oodb.Storage.Mem.clear_faults fs;
  Wal.sync wal;
  Alcotest.(check int) "written once" 1 (Wal.batches_written wal);
  Alcotest.(check int) "group closed" 0 (Wal.pending_commits wal);
  Wal.detach wal;
  let db2 = fresh_db () in
  let r = Wal.recover ~storage db2 ~snapshot:"none.snapshot" ~wal:"log.wal" in
  Alcotest.(check int) "one batch recovered" 1 r.Wal.r_batches_replayed;
  Alcotest.check value "its state" (Value.Float 7.) (Db.get db2 e "salary")

let test_nested_inner_abort_outer_commit () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Transaction.begin_ db;
      Db.set db e "salary" (Value.Float 2.);
      Transaction.begin_ db;
      ignore (new_employee db ~name:"ghost");
      Db.set db e "salary" (Value.Float 3.);
      Transaction.abort db;
      Db.set db e "income" (Value.Float 4.);
      Transaction.commit db;
      Wal.detach wal;
      let db2, applied = recover path in
      Alcotest.(check int) "create + the outer batch" 2 applied;
      Oodb.Verify.check_exn ~quiescent:true db2;
      Alcotest.check value "outer write survived" (Value.Float 2.)
        (Db.get db2 e "salary");
      Alcotest.check value "post-abort write survived" (Value.Float 4.)
        (Db.get db2 e "income");
      Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2))

let test_nested_inner_commit_outer_abort () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Transaction.begin_ db;
      Transaction.begin_ db;
      Db.set db e "salary" (Value.Float 5.);
      Transaction.commit db; (* folds into the doomed outer transaction *)
      Transaction.abort db;
      Wal.detach wal;
      Alcotest.(check int) "only the create hit the log" 1
        (Wal.batches_written wal);
      let db2, applied = recover path in
      Alcotest.(check int) "one batch" 1 applied;
      Oodb.Verify.check_exn ~quiescent:true db2;
      Alcotest.check value "inner commit dropped with the outer abort"
        (Value.Float 1.) (Db.get db2 e "salary");
      Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2))

let test_autocommit_interleaved_with_nested () =
  with_tmp (fun path ->
      let db = fresh_db () in
      let wal = Wal.attach db path in
      let e = new_employee db ~salary:1. in
      Transaction.begin_ db;
      Db.set db e "salary" (Value.Float 2.);
      Transaction.begin_ db;
      Db.set db e "income" (Value.Float 3.);
      Transaction.commit db;
      Transaction.commit db;
      Db.set db e "salary" (Value.Float 4.); (* autocommit between txns *)
      Transaction.begin_ db;
      Db.set db e "income" (Value.Float 9.);
      Transaction.abort db;
      Db.set db e "income" (Value.Float 5.); (* autocommit after abort *)
      Wal.detach wal;
      let db2, applied = recover path in
      Alcotest.(check int) "create, outer, two autocommits" 4 applied;
      Oodb.Verify.check_exn ~quiescent:true db2;
      Alcotest.check value "final salary" (Value.Float 4.)
        (Db.get db2 e "salary");
      Alcotest.check value "final income" (Value.Float 5.)
        (Db.get db2 e "income");
      Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2))

let test_sys_stats_mirror_recovery_counters () =
  with_tmp (fun path ->
      let src = fresh_db () in
      let wal = Wal.attach src path in
      ignore (new_employee src);
      Wal.detach wal;
      let db = employee_db () in
      let sys = System.create db in
      let applied = Wal.replay db path in
      Alcotest.(check int) "applied" 1 applied;
      let s = System.stats sys in
      Alcotest.(check int) "mirrored into sys stats" 1
        s.System.wal_batches_replayed;
      Alcotest.(check bool) "fsyncs counted on the source store" true
        ((Db.stats src).Oodb.Types.wal_fsyncs > 0))

(* Property: for random committed workloads, replaying the WAL into a fresh
   database reproduces the exact observable state. *)
let prop_replay_equals_original =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wal replay reproduces state" ~count:60
       QCheck2.Gen.(
         list_size (int_bound 40)
           (oneof
              [
                map (fun (i, v) -> `Set (i, v)) (pair (int_bound 6) small_signed_int);
                return `Create;
                map (fun i -> `Delete i) (int_bound 6);
                map (fun b -> `Txn b) bool; (* true = commit, false = abort *)
              ]))
       (fun ops ->
         with_tmp (fun path ->
             let db = fresh_db () in
             let wal = Wal.attach db path in
             let created = ref [] in
             let base = Array.init 7 (fun _ -> new_employee db) in
             Array.iter (fun o -> created := o :: !created) base;
             let apply op =
               try
                 match op with
                 | `Set (i, v) ->
                   Db.set db base.(i) "salary" (Value.Float (float_of_int v))
                 | `Create -> created := new_employee db :: !created
                 | `Delete i -> Db.delete_object db base.(i)
                 | `Txn _ -> ()
               with Errors.No_such_object _ | Errors.Dead_object _ -> ()
             in
             (* interleave flat ops and short transactions *)
             List.iter
               (fun op ->
                 match op with
                 | `Txn commit ->
                   Transaction.begin_ db;
                   apply `Create;
                   if commit then Transaction.commit db else Transaction.abort db
                 | other -> apply other)
               ops;
             Wal.detach wal;
             let db2, _ = recover path in
             snapshot db = snapshot db2)))

(* --- group commit -------------------------------------------------------- *)

module Storage = Oodb.Storage
module Mem = Storage.Mem

let log_path = "log.wal"
let snap_path = "snap.db"

let mem_recover fs =
  let db = fresh_db () in
  let r = Wal.recover ~storage:(Mem.storage fs) db ~snapshot:snap_path ~wal:log_path in
  (db, r)

let test_group_commit_coalesces () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 4; max_wait_us = max_int }
      db log_path
  in
  let es = List.init 8 (fun _ -> new_employee db ~salary:1.) in
  Alcotest.(check int) "8 commits sealed into 2 batches" 2
    (Wal.batches_written wal);
  Alcotest.(check int) "coordinator counted both seals" 2
    (Db.stats db).Oodb.Types.group_commit_batches;
  Alcotest.(check int) "nothing pending after a seal" 0 (Wal.pending_commits wal);
  (* one fsync per sealed group, not per commit (plus the header's) *)
  Alcotest.(check int) "3 fsyncs: header + 2 group seals" 3 (Mem.fsyncs fs);
  Wal.detach wal;
  let db2, r = mem_recover fs in
  Alcotest.(check int) "both group batches replay" 2 r.Wal.r_batches_replayed;
  List.iter
    (fun e -> Alcotest.(check bool) "employee survived" true (Db.exists db2 e))
    es;
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

let test_group_commit_sync_seals () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 100; max_wait_us = max_int }
      db log_path
  in
  ignore (new_employee db ~salary:1.);
  ignore (new_employee db ~salary:2.);
  Alcotest.(check int) "2 commits waiting in the open group" 2
    (Wal.pending_commits wal);
  (* the open group is memory only: the durable log holds just the header *)
  let db0 = fresh_db () in
  Alcotest.(check int) "nothing durable before the seal" 0
    (Wal.replay ~storage db0 log_path);
  Wal.sync wal;
  Alcotest.(check int) "sync sealed the group" 0 (Wal.pending_commits wal);
  Alcotest.(check int) "one batch for both commits" 1 (Wal.batches_written wal);
  let db1 = fresh_db () in
  Alcotest.(check int) "durable after sync" 1 (Wal.replay ~storage db1 log_path);
  Wal.detach wal;
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db1)

let test_group_commit_crash_loses_whole_group () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 3; max_wait_us = max_int }
      db log_path
  in
  let a = new_employee db ~salary:1. in
  let b = new_employee db ~salary:2. in
  let c = new_employee db ~salary:3. in
  (* first group of 3 sealed; these two are the open group *)
  Db.set db a "salary" (Value.Float 10.);
  Db.set db b "salary" (Value.Float 20.);
  (* crash: only the durable bytes survive *)
  let fs2 = Mem.reboot fs in
  let db2 = fresh_db () in
  ignore (Wal.replay ~storage:(Mem.storage fs2) db2 log_path);
  Alcotest.check value "sealed group survived" (Value.Float 1.)
    (Db.get db2 a "salary");
  Alcotest.(check bool) "third create survived with its group" true
    (Db.exists db2 c);
  Alcotest.check value "open group lost wholesale" (Value.Float 2.)
    (Db.get db2 b "salary");
  Wal.detach wal

let test_group_commit_window_expiry () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  (* a zero-length window: each arriving commit finds the previous group
     expired and seals it, so grouping degenerates to per-commit batches *)
  let wal =
    Wal.attach ~storage
      ~group_commit:{ Wal.max_batch = 100; max_wait_us = 0 }
      db log_path
  in
  ignore (new_employee db);
  ignore (new_employee db);
  ignore (new_employee db);
  Alcotest.(check int) "two expired groups sealed" 2 (Wal.batches_written wal);
  Alcotest.(check int) "the third commit holds the group open" 1
    (Wal.pending_commits wal);
  Wal.detach wal;
  Alcotest.(check int) "detach sealed the last group" 3 (Wal.batches_written wal);
  let db2 = fresh_db () in
  Alcotest.(check int) "all three batches replay" 3
    (Wal.replay ~storage db2 log_path);
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

(* --- incremental checkpoints --------------------------------------------- *)

let test_delta_checkpoint_and_recover () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db log_path in
  let es = Array.init 40 (fun _ -> new_employee db ~salary:1.) in
  (* first checkpoint has no base to chain from: bootstraps a full one *)
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Alcotest.(check bool) "bootstrapped a full base" true
    (Mem.durable fs snap_path <> "");
  Alcotest.(check int) "no delta yet" 0
    (List.length (Wal.delta_files ~storage ~snapshot:snap_path ()));
  let base_bytes = String.length (Mem.durable fs snap_path) in
  Db.set db es.(0) "salary" (Value.Float 2.);
  Db.set db es.(1) "salary" (Value.Float 3.);
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Db.set db es.(2) "salary" (Value.Float 4.);
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  (match Wal.delta_files ~storage ~snapshot:snap_path () with
  | [ (_, p1, w1); (_, p2, w2) ] ->
    Alcotest.(check bool) "chain links by sequence" true (p2 = w1 && w2 > p2 && p1 > 0)
  | l -> Alcotest.failf "expected 2 chain elements, got %d" (List.length l));
  let delta_bytes =
    String.length (Mem.durable fs (snap_path ^ ".delta-1"))
  in
  Alcotest.(check bool) "delta is much smaller than the base" true
    (delta_bytes * 4 < base_bytes);
  Alcotest.(check int) "delta checkpoints counted" 2
    (Db.stats db).Oodb.Types.delta_checkpoints;
  (* a clean store writes no empty chain element *)
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Alcotest.(check int) "no-op on a clean store" 2
    (List.length (Wal.delta_files ~storage ~snapshot:snap_path ()));
  (* work past the last delta lands in the WAL tail *)
  Db.set db es.(3) "salary" (Value.Float 5.);
  Wal.detach wal;
  let db2, r = mem_recover fs in
  Alcotest.(check bool) "base loaded" true r.Wal.r_snapshot_loaded;
  Alcotest.(check int) "both deltas applied" 2 r.Wal.r_deltas_applied;
  Alcotest.(check bool) "tail replayed" true (r.Wal.r_batches_replayed >= 1);
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

let test_delta_covers_deletes_and_subscriptions () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db log_path in
  let a = new_employee db ~salary:1. in
  let b = new_employee db ~salary:2. in
  let c = new_employee db ~salary:3. in
  Wal.checkpoint wal ~snapshot:snap_path;
  Db.delete_object db b;
  Db.subscribe db ~reactive:a ~consumer:c;
  Db.subscribe_class db ~cls:"employee" ~consumer:c;
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Wal.detach wal;
  let db2, r = mem_recover fs in
  Alcotest.(check int) "one delta" 1 r.Wal.r_deltas_applied;
  Alcotest.(check bool) "delete carried by the delta" false (Db.exists db2 b);
  Alcotest.(check (list oid)) "subscription carried" [ c ]
    (Db.consumers_of db2 a);
  Alcotest.(check (list oid)) "class subscription carried" [ c ]
    (Db.class_consumers_of db2 "employee");
  Alcotest.(check bool) "index carried" true
    (Db.index_kind db2 ~cls:"employee" ~attr:"salary" <> None);
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

(* --- compaction ----------------------------------------------------------- *)

let test_compact_truncates_and_folds () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db log_path in
  let es = Array.init 10 (fun _ -> new_employee db ~salary:1.) in
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Db.set db es.(0) "salary" (Value.Float 2.);
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  Db.set db es.(1) "salary" (Value.Float 3.);
  let wal_before = String.length (Mem.durable fs log_path) in
  Wal.compact wal ~snapshot:snap_path;
  (* log truncated to the bare header, deltas folded into the new base *)
  Alcotest.(check int) "log truncated" (String.length "SENTINELWAL 2\n")
    (String.length (Mem.durable fs log_path));
  Alcotest.(check bool) "log was non-trivial before" true
    (wal_before > String.length "SENTINELWAL 2\n");
  Alcotest.(check int) "delta chain removed" 0
    (List.length (Wal.delta_files ~storage ~snapshot:snap_path ()));
  Alcotest.(check int) "wal_bytes tracks the truncation"
    (String.length (Mem.durable fs log_path))
    (Db.stats db).Oodb.Types.wal_bytes;
  (* the log keeps working after compaction *)
  Db.set db es.(2) "salary" (Value.Float 4.);
  Wal.detach wal;
  let db2, r = mem_recover fs in
  Alcotest.(check int) "post-compact tail replays" 1 r.Wal.r_batches_replayed;
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

let test_compact_retention () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db log_path in
  let e = new_employee db ~salary:0. in
  for i = 1 to 9 do
    Db.set db e "salary" (Value.Float (float_of_int i))
  done;
  (* keep everything from batch 6 on (create + 9 sets = batches 1..10) *)
  Wal.compact ~retention:(Wal.Keep_since_seq 6) wal ~snapshot:snap_path;
  let kept = Mem.durable fs log_path in
  Alcotest.(check bool) "a real tail survived" true
    (String.length kept > String.length "SENTINELWAL 2\n");
  (* retained batches are covered by the base: replay skips them *)
  let db2, r = mem_recover fs in
  Alcotest.(check int) "retained tail skipped by recovery" 0
    r.Wal.r_batches_replayed;
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2);
  (* appends after a retained tail keep the sequence contiguous *)
  Db.set db e "salary" (Value.Float 42.);
  Wal.detach wal;
  let db3, r3 = mem_recover fs in
  Alcotest.(check int) "appended batch replays past the tail" 1
    r3.Wal.r_batches_replayed;
  Alcotest.check value "final state" (Value.Float 42.) (Db.get db3 e "salary");
  (* a byte budget keeps only whole batches within it *)
  let fsb = Mem.create () in
  let db4 = fresh_db () in
  let wal4 = Wal.attach ~storage:(Mem.storage fsb) db4 log_path in
  let e4 = new_employee db4 ~salary:0. in
  for i = 1 to 9 do
    Db.set db4 e4 "salary" (Value.Float (float_of_int i))
  done;
  Wal.compact ~retention:(Wal.Keep_bytes 120) wal4 ~snapshot:snap_path;
  let len = String.length (Mem.durable fsb log_path) in
  Alcotest.(check bool) "within the byte budget" true
    (len <= String.length "SENTINELWAL 2\n" + 120);
  Wal.detach wal4;
  let db5, _ = mem_recover fsb in
  Alcotest.(check bool) "budget retention states equal" true
    (snapshot db4 = snapshot db5)

let test_stale_delta_ignored () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = fresh_db () in
  let wal = Wal.attach ~storage db log_path in
  let e = new_employee db ~salary:1. in
  Wal.checkpoint wal ~snapshot:snap_path;
  Db.set db e "salary" (Value.Float 2.);
  Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path;
  (* a compaction folds the delta away... *)
  let stale = Mem.durable fs (snap_path ^ ".delta-1") in
  Wal.compact wal ~snapshot:snap_path;
  Db.set db e "salary" (Value.Float 3.);
  Wal.detach wal;
  (* ...but a crashed one could leave the old file behind *)
  Mem.set_file fs (snap_path ^ ".delta-1") stale;
  let db2, r = mem_recover fs in
  Alcotest.(check int) "stale chain element rejected" 0 r.Wal.r_deltas_applied;
  Alcotest.check value "state correct despite the leftover" (Value.Float 3.)
    (Db.get db2 e "salary");
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

let test_system_durability_wrappers () =
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db = employee_db () in
  let sys = System.create db in
  let _wal =
    System.attach_wal ~storage
      ~group_commit:{ Oodb.Wal.max_batch = 8; max_wait_us = max_int }
      sys log_path
  in
  let e = new_employee db ~salary:1. in
  System.sync_wal sys;
  System.checkpoint sys ~snapshot:snap_path;
  Db.set db e "salary" (Value.Float 2.);
  System.checkpoint ~mode:`Delta sys ~snapshot:snap_path;
  Db.set db e "salary" (Value.Float 3.);
  System.compact_wal ~retention:Oodb.Wal.Keep_none sys ~snapshot:snap_path;
  let s = System.stats sys in
  Alcotest.(check bool) "wal_bytes surfaced" true (s.System.wal_bytes > 0);
  Alcotest.(check bool) "snapshot_bytes surfaced" true
    (s.System.snapshot_bytes > 0);
  (* each durability point (sync, delta checkpoint, compact) sealed the
     group that was open when it ran *)
  Alcotest.(check int) "group seals surfaced" 3 s.System.group_commit_batches;
  Alcotest.(check int) "delta checkpoints surfaced" 1 s.System.delta_checkpoints;
  System.detach_wal sys;
  Alcotest.(check bool) "journal released" true (System.wal sys = None);
  let db2, r = mem_recover fs in
  Alcotest.(check bool) "base loaded" true r.Wal.r_snapshot_loaded;
  Alcotest.(check bool) "states equal" true (snapshot db = snapshot db2)

(* --- the logical clock ------------------------------------------------------ *)

(* Sends outside any transaction tick the clock without a commit; the log
   still carries it, so recovery never hands out a timestamp again. *)
let test_clock_survives_recovery () =
  let fs = Mem.create () in
  let db = fresh_db () in
  let wal =
    Wal.attach ~storage:(Mem.storage fs)
      ~group_commit:{ Wal.max_batch = 100; max_wait_us = max_int }
      db log_path
  in
  let e = new_employee db in
  ignore (Db.send db e "set_salary" [ Value.Float 5. ]);
  Wal.sync wal;
  let db2, _ = mem_recover fs in
  Alcotest.(check int) "autocommit batch carries the clock" (Db.now db)
    (Db.now db2);
  (* a send that writes nothing: only a clock-only batch records it *)
  ignore (Db.send db e "get_age" []);
  let before = Wal.batches_written wal in
  Wal.sync wal;
  Alcotest.(check int) "one clock-only batch" (before + 1)
    (Wal.batches_written wal);
  Wal.sync wal;
  Alcotest.(check int) "none when the clock stands still" (before + 1)
    (Wal.batches_written wal);
  Wal.detach wal;
  let db3, _ = mem_recover fs in
  Alcotest.(check int) "recovered clock" (Db.now db) (Db.now db3);
  Alcotest.(check bool) "state" true (snapshot db = snapshot db3)

(* --- the zero tail -------------------------------------------------------- *)

let zeros n = String.make n '\000'

(* A log whose three batches are followed by [tail]. *)
let log_with_tail tail =
  let fs = Mem.create () in
  let db = fresh_db () in
  let wal = Wal.attach ~storage:(Mem.storage fs) db log_path in
  let e = new_employee db ~salary:1. in
  Db.set db e "salary" (Value.Float 2.);
  Db.set db e "salary" (Value.Float 3.);
  Wal.detach wal;
  Mem.set_file fs log_path (Mem.contents fs log_path ^ tail);
  (fs, db)

let discarded db = (Db.stats db).Oodb.Types.wal_batches_discarded

let test_zeros_after_batches_are_a_clean_end () =
  let fs, db = log_with_tail (zeros 70_000) in
  let db2, r = mem_recover fs in
  Alcotest.(check int) "every batch" 3 r.Wal.r_batches_replayed;
  Alcotest.(check bool) "state" true (snapshot db = snapshot db2);
  Alcotest.(check int) "nothing discarded" 0 (discarded db2);
  (* attach drops the zeros, so a batch appended next stays reachable *)
  let wal = Wal.attach ~storage:(Mem.storage fs) db2 log_path in
  let e = new_employee db2 ~salary:4. in
  Wal.detach wal;
  let db3, r3 = mem_recover fs in
  Alcotest.(check int) "appended batch replays" 4 r3.Wal.r_batches_replayed;
  Alcotest.check value "its state" (Value.Float 4.) (Db.get db3 e "salary");
  Alcotest.(check int) "still nothing discarded" 0 (discarded db3)

let test_torn_batch_before_zeros_discarded () =
  let fs, db = log_with_tail ("B 4 2 00000000\nc 9 employee" ^ zeros 4096) in
  let db2, r = mem_recover fs in
  Alcotest.(check int) "intact batches" 3 r.Wal.r_batches_replayed;
  Alcotest.(check bool) "state" true (snapshot db = snapshot db2);
  Alcotest.(check int) "torn batch discarded once" 1 (discarded db2)

(* A crash after an extension became durable but before the magic line did
   leaves nothing but zeros: nothing was ever committed there. *)
let test_all_zero_log_reinitialised () =
  let fs = Mem.create () in
  Mem.set_file fs log_path (zeros 65536);
  let db, r = mem_recover fs in
  Alcotest.(check int) "nothing to replay" 0 r.Wal.r_batches_replayed;
  Alcotest.(check int) "nothing discarded" 0 (discarded db);
  let wal = Wal.attach ~storage:(Mem.storage fs) db log_path in
  let e = new_employee db ~salary:6. in
  Wal.detach wal;
  Alcotest.(check bool) "magic line rewritten" true
    (String.starts_with ~prefix:"SENTINELWAL 2\n" (Mem.contents fs log_path));
  let db2, r2 = mem_recover fs in
  Alcotest.(check int) "the new batch" 1 r2.Wal.r_batches_replayed;
  Alcotest.check value "its state" (Value.Float 6.) (Db.get db2 e "salary")

(* The real log writer: a copy of the file taken while the log is live is a
   crash image, zero tail included, and recovers to the live state; attaching
   to it, appending and recovering again works too. *)
let test_unix_zero_tail_round_trip () =
  with_tmp (fun path ->
      with_tmp (fun image ->
          let read p = In_channel.with_open_bin p In_channel.input_all in
          let db = fresh_db () in
          let wal = Wal.attach db path in
          (* one large batch crosses the first 64 KiB of zeros *)
          Transaction.begin_ db;
          for _ = 1 to 40 do
            ignore (new_employee db ~name:(String.make 2000 'x'))
          done;
          Transaction.commit db;
          let e = new_employee db ~salary:1. in
          Db.set db e "salary" (Value.Float 2.);
          let data = read path and logical = (Db.stats db).Oodb.Types.wal_bytes in
          Out_channel.with_open_bin image (fun oc -> output_string oc data);
          Alcotest.(check bool) "zeros follow the logical end" true
            (String.length data > logical
            && String.sub data logical (String.length data - logical)
               = zeros (String.length data - logical));
          let live = snapshot db in
          Db.set db e "salary" (Value.Float 3.);
          Wal.detach wal;
          Alcotest.(check int) "a detached log has no zero tail"
            (Db.stats db).Oodb.Types.wal_bytes
            (String.length (read path));
          let db2, applied = recover image in
          Alcotest.(check int) "every batch of the image" 3 applied;
          Alcotest.(check bool) "image state" true (live = snapshot db2);
          Alcotest.(check int) "nothing discarded" 0 (discarded db2);
          let wal2 = Wal.attach db2 image in
          Db.set db2 e "salary" (Value.Float 3.);
          let f = new_employee db2 ~salary:9. in
          Wal.detach wal2;
          let db3, applied3 = recover image in
          Alcotest.(check int) "appended batches" 5 applied3;
          Alcotest.(check bool) "state after appending" true
            (snapshot db2 = snapshot db3);
          Alcotest.check value "appended object" (Value.Float 9.)
            (Db.get db3 f "salary");
          Alcotest.(check int) "still nothing discarded" 0 (discarded db3)))

(* The in-memory store appends in place: 50k writes of 75 bytes, with and
   without a volatile cache, leave exactly their concatenation (live, and
   durable once fsynced), and truncation and reboot keep byte prefixes. *)
let test_mem_append_linear () =
  let module Mem = Oodb.Storage.Mem in
  let piece k = Printf.sprintf "%074d\n" k in
  let expected = String.concat "" (List.init 50_000 piece) in
  List.iter
    (fun cache ->
      let fs = Mem.create ~cache () in
      let storage = Mem.storage fs in
      let w = storage.open_log ~append:true "big.log" in
      for k = 0 to 49_999 do
        w.write (piece k)
      done;
      Alcotest.(check int) "size" (String.length expected) (storage.size "big.log");
      Alcotest.(check bool) "live contents" true (Mem.contents fs "big.log" = expected);
      Alcotest.(check bool) "durable before fsync" true
        (Mem.durable fs "big.log" = if cache then "" else expected);
      w.fsync ();
      Alcotest.(check bool) "durable after fsync" true (Mem.durable fs "big.log" = expected);
      w.write "tail";
      storage.truncate "big.log" 150;
      Alcotest.(check string) "truncated to a prefix" (String.sub expected 0 150)
        (Mem.contents fs "big.log");
      Alcotest.(check string) "reboot keeps the durable prefix" (String.sub expected 0 150)
        (Mem.durable (Mem.reboot fs) "big.log"))
    [ false; true ]

let suite =
  [
    test "autocommit logging" test_autocommit_logging;
    test "committed transaction replayed" test_committed_txn_replayed;
    test "aborted transaction not logged" test_aborted_txn_not_logged;
    test "inner abort, outer commit" test_inner_abort_partial;
    test "subscriptions and indexes replayed" test_subscriptions_and_indexes_replayed;
    test "torn tail ignored" test_torn_tail_ignored;
    test "checkpoint truncates" test_checkpoint_truncates;
    test "rule abort keeps log clean" test_rule_abort_keeps_log_clean;
    test "attach misuse" test_attach_misuse;
    test "missing log is empty" test_missing_log_is_empty;
    test "attach validates magic" test_attach_validates_magic;
    test "v1 logs stay readable" test_v1_log_compatible;
    test "bit-flipped tail discarded" test_bitflip_tail_discarded;
    test "counters move only after durable writes"
      test_counters_only_after_durable_write;
    test "nested: inner abort inside outer commit"
      test_nested_inner_abort_outer_commit;
    test "nested: inner commit inside outer abort"
      test_nested_inner_commit_outer_abort;
    test "nested: autocommit interleaved" test_autocommit_interleaved_with_nested;
    test "system stats mirror recovery counters"
      test_sys_stats_mirror_recovery_counters;
    test "group commit coalesces" test_group_commit_coalesces;
    test "group commit: sync seals" test_group_commit_sync_seals;
    test "group commit: crash loses whole group"
      test_group_commit_crash_loses_whole_group;
    test "group commit: window expiry" test_group_commit_window_expiry;
    test "group commit: failed seal keeps its group"
      test_group_commit_failed_seal_keeps_group;
    test "delta checkpoint and recover" test_delta_checkpoint_and_recover;
    test "delta covers deletes and subscriptions"
      test_delta_covers_deletes_and_subscriptions;
    test "compact truncates and folds" test_compact_truncates_and_folds;
    test "compact retention policies" test_compact_retention;
    test "stale delta ignored" test_stale_delta_ignored;
    test "system durability wrappers" test_system_durability_wrappers;
    test "clock survives recovery" test_clock_survives_recovery;
    test "zeros after batches are a clean end"
      test_zeros_after_batches_are_a_clean_end;
    test "torn batch before zeros discarded"
      test_torn_batch_before_zeros_discarded;
    test "all-zero log is re-initialised" test_all_zero_log_reinitialised;
    test "unix zero tail round trip" test_unix_zero_tail_round_trip;
    prop_replay_equals_original;
    test "mem storage appends in linear time" test_mem_append_linear;
  ]

open Helpers
module Persist = Oodb.Persist

let test_value_codec_cases () =
  let roundtrip v =
    Alcotest.check value (Value.to_string v) v
      (Persist.decode_value (Persist.encode_value v))
  in
  roundtrip Value.Null;
  roundtrip (Value.Bool true);
  roundtrip (Value.Bool false);
  roundtrip (Value.Int 0);
  roundtrip (Value.Int (-123456));
  roundtrip (Value.Float 3.14159);
  roundtrip (Value.Float (-0.0));
  roundtrip (Value.Float infinity);
  roundtrip (Value.Str "");
  roundtrip (Value.Str "hello world");
  roundtrip (Value.Str "commas, (parens) %percent% and\nnewlines\ttabs");
  roundtrip (Value.Obj (Oid.of_int 42));
  roundtrip (Value.List []);
  roundtrip (Value.List [ Value.Int 1; Value.Str "a,b"; Value.List [ Value.Null ] ])

let test_value_codec_errors () =
  let bad s =
    match Persist.decode_value s with
    | _ -> Alcotest.failf "%S should not decode" s
    | exception Errors.Parse_error _ -> ()
  in
  bad "";
  bad "x";
  bad "i:abc";
  bad "b:x";
  bad "l(";
  bad "l(n";
  bad "i:1 trailing";
  bad "s:%zz"

let prop_value_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"value codec roundtrip" ~count:300
       Test_value.value_gen (fun v ->
         Value.equal v (Persist.decode_value (Persist.encode_value v))))

let populated_db () =
  let db, sys, collector, _ = sys_with_collector () in
  ignore sys;
  let e1 = new_employee db ~name:"ann" ~salary:1500. in
  let e2 = new_employee db ~cls:"manager" ~name:"mgr" ~salary:9000. in
  Db.set db e1 "mgr" (Value.Obj e2);
  Db.subscribe db ~reactive:e1 ~consumer:collector;
  Db.subscribe_class db ~cls:"manager" ~consumer:collector;
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  ignore (Db.tick db);
  (db, e1, e2, collector)

let reload db =
  let text = Persist.to_string db in
  let db2 = Db.create () in
  Workloads.Payroll.install db2;
  let _sys2 = System.create db2 in
  Persist.of_string db2 text;
  db2

let test_db_roundtrip () =
  let db, e1, e2, collector = populated_db () in
  let db2 = reload db in
  Alcotest.check value "attr" (Value.Str "ann") (Db.get db2 e1 "name");
  Alcotest.check value "obj-valued attr" (Value.Obj e2) (Db.get db2 e1 "mgr");
  Alcotest.(check string) "class preserved" "manager" (Db.class_of db2 e2);
  Alcotest.(check (list oid)) "instance consumers" [ collector ]
    (Db.consumers_of db2 e1);
  Alcotest.(check (list oid)) "class consumers" [ collector ]
    (Db.class_consumers_of db2 "manager");
  Alcotest.(check bool) "index declared" true
    (Db.has_index db2 ~cls:"employee" ~attr:"salary");
  Alcotest.(check (list oid)) "index rebuilt" [ e1 ]
    (Db.index_lookup db2 ~cls:"employee" ~attr:"salary" (Value.Float 1500.));
  Alcotest.(check int) "clock preserved" (Db.now db) (Db.now db2);
  (* OID allocation continues without collisions *)
  let fresh = new_employee db2 in
  Alcotest.(check bool) "fresh oid distinct" true
    (not (List.exists (Oid.equal fresh) [ e1; e2; collector ]))

(* A snapshot load rebuilds every index through the bulk path: the loaded
   store verifies clean and its indexes hold the saved pairs. *)
let test_load_rebuilds_indexes () =
  let db = employee_db () in
  let _sys = System.create db in
  List.iteri
    (fun i salary ->
      ignore
        (new_employee db
           ~cls:(if i mod 3 = 0 then "manager" else "employee")
           ~name:(Printf.sprintf "e%d" (i mod 7))
           ~salary))
    (List.init 60 (fun i -> float_of_int (i mod 11)));
  Db.set db (List.hd (Db.extent db "employee")) "salary" (Value.Int 3);
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"name" ();
  Db.create_index db ~kind:`Ordered ~cls:"manager" ~attr:"salary" ();
  let db2 = reload db in
  Alcotest.(check bool) "loaded store verifies" true (Oodb.Verify.check ~quiescent:true db2 = Ok ());
  List.iter
    (fun (cls, attr) ->
      Alcotest.(check bool) (cls ^ "." ^ attr ^ " pairs") true
        (Db.index_pairs db ~cls ~attr = Db.index_pairs db2 ~cls ~attr))
    [ ("employee", "salary"); ("employee", "name"); ("manager", "salary") ]

let test_roundtrip_is_fixpoint () =
  let db, _, _, _ = populated_db () in
  let once = Persist.to_string db in
  let db2 = reload db in
  Alcotest.(check string) "stable serialization" once (Persist.to_string db2)

let test_load_errors () =
  let fresh () =
    let db = Db.create () in
    Workloads.Payroll.install db;
    db
  in
  (match Persist.of_string (fresh ()) "garbage" with
  | () -> Alcotest.fail "bad magic accepted"
  | exception Errors.Parse_error _ -> ());
  (* object of unregistered class *)
  let text = "SENTINELDB 1\nclock 0\nnextoid 2\nobj 1 martian\nend\nEOF\n" in
  (match Persist.of_string (fresh ()) text with
  | () -> Alcotest.fail "unknown class accepted"
  | exception Errors.No_such_class "martian" -> ());
  (* loading into a non-empty database *)
  let db = fresh () in
  ignore (new_employee db);
  (match Persist.of_string db "SENTINELDB 1\nEOF\n" with
  | () -> Alcotest.fail "non-empty load accepted"
  | exception Errors.Transaction_error _ -> ());
  (* loading during a transaction *)
  let db = fresh () in
  Transaction.begin_ db;
  match Persist.of_string db "SENTINELDB 1\nEOF\n" with
  | () -> Alcotest.fail "load during txn accepted"
  | exception Errors.Transaction_error _ -> Transaction.abort db

let test_save_load_file () =
  let db, e1, _, _ = populated_db () in
  let path = Filename.temp_file "sentinel_test" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Persist.save db path;
      let db2 = Db.create () in
      Workloads.Payroll.install db2;
      let _sys2 = System.create db2 in
      Persist.load db2 path;
      Alcotest.check value "file roundtrip" (Value.Str "ann")
        (Db.get db2 e1 "name"))

let test_save_atomic_and_tmp_cleanup () =
  let module Mem = Oodb.Storage.Mem in
  let fs = Mem.create () in
  let storage = Mem.storage fs in
  let db, e1, _, _ = populated_db () in
  Persist.save ~storage db "store.db";
  Alcotest.(check (list string)) "a clean save leaves only the target"
    [ "store.db" ] (Mem.files fs);
  (* a save that fails mid-serialization must unlink its temp file and
     leave the previous snapshot untouched *)
  let before = Mem.contents fs "store.db" in
  Mem.fail_writes fs 99;
  (match Persist.save ~storage db "store.db" with
  | () -> Alcotest.fail "expected the injected failure to escape"
  | exception Errors.Io_error _ -> ());
  Mem.clear_faults fs;
  Alcotest.(check (list string)) "failed save leaves no temp file"
    [ "store.db" ] (Mem.files fs);
  Alcotest.(check string) "previous snapshot untouched" before
    (Mem.contents fs "store.db");
  let db2 = Db.create () in
  Workloads.Payroll.install db2;
  let _sys2 = System.create db2 in
  Persist.load ~storage db2 "store.db";
  Alcotest.check value "old snapshot still loads" (Value.Str "ann")
    (Db.get db2 e1 "name")

(* Frozen pre-slot fixtures (test/fixtures/gen_note.md): a snapshot and a
   rotated WAL written by the hashtbl-era build.  Loading and replaying them
   into today's slot-compiled store proves the on-disk contract — attribute
   names stay strings — survived the layout refactor. *)
let test_preslot_fixture_compat () =
  let db = Db.create () in
  Db.define_class db
    (Schema.define "fx_account"
       ~attrs:
         [
           ("owner", Value.Str "");
           ("balance", Value.Int 0);
           ("tags", Value.List []);
         ]);
  Db.define_class db
    (Schema.define "fx_savings" ~super:"fx_account"
       ~attrs:[ ("rate", Value.Float 0.01) ]);
  Persist.load db (fixture "preslot.snapshot");
  let applied = Oodb.Wal.replay db (fixture "preslot.wal") in
  Alcotest.(check int) "post-checkpoint batches replay" 3 applied;
  let o n = Oid.of_int n in
  (* obj 1: untouched by the WAL *)
  Alcotest.check value "o1 balance" (Value.Int 140) (Db.get db (o 1) "balance");
  Alcotest.check value "o1 owner" (Value.Str "ann") (Db.get db (o 1) "owner");
  Alcotest.check value "o1 tags"
    (Value.List [ Value.Str "vip"; Value.Int 7 ])
    (Db.get db (o 1) "tags");
  Alcotest.(check (list oid)) "o1 consumers" [ o 2 ] (Db.consumers_of db (o 1));
  (* obj 2: balance and rate updated by batch 7 *)
  Alcotest.check value "o2 balance" (Value.Int 300) (Db.get db (o 2) "balance");
  Alcotest.check value "o2 rate" (Value.Float 0.07) (Db.get db (o 2) "rate");
  Alcotest.check value "o2 owner" (Value.Str "bob") (Db.get db (o 2) "owner");
  (* obj 3 was deleted before the checkpoint; obj 4 created by batch 8 *)
  Alcotest.(check bool) "o3 gone" false (Db.exists db (o 3));
  Alcotest.check value "o4 balance" (Value.Int 11) (Db.get db (o 4) "balance");
  Alcotest.check value "o4 owner" (Value.Str "cyd") (Db.get db (o 4) "owner");
  (* the snapshot's index was rebuilt and followed the replayed writes *)
  Alcotest.(check (list oid)) "index finds o4" [ o 4 ]
    (Db.index_lookup db ~cls:"fx_account" ~attr:"balance" (Value.Int 11));
  Alcotest.(check (list oid)) "index dropped o2's old key" []
    (Db.index_lookup db ~cls:"fx_account" ~attr:"balance" (Value.Int 250));
  Alcotest.(check (list oid)) "class consumers" [ o 2 ]
    (Db.class_consumers_of db "fx_account");
  Oodb.Verify.check_exn db

(* An [a] line for an attribute the reader's class does not declare is
   dropped on load, from a snapshot and from a delta alike: the object reads
   as if the attribute had never been stored. *)
let test_undeclared_attribute_dropped () =
  (* the writer declares "grade"; the readers' schema does not *)
  let src = employee_db () in
  let e = new_employee src ~name:"ann" in
  ignore
    (Oodb.Evolution.add_attribute src ~cls:"employee" ~attr:"grade"
       ~default:(Value.Int 3));
  let check_dropped label text load =
    Alcotest.(check bool) (label ^ " carries the line") true
      (contains_substring ~sub:"\na grade " text);
    let db = employee_db () in
    load db;
    Alcotest.(check bool) (label ^ ": attrs omit it") false
      (List.mem_assoc "grade" (Db.attrs db e));
    Alcotest.(check (option value)) (label ^ ": get_opt") None
      (Db.get_opt db e "grade");
    Alcotest.check value (label ^ ": declared attributes load") (Value.Str "ann")
      (Db.get db e "name");
    Alcotest.(check bool) (label ^ ": verifies") true (Oodb.Verify.check db = Ok ())
  in
  let text = Persist.to_string src in
  check_dropped "snapshot" text (fun db -> Persist.of_string db text);
  let fs = Oodb.Storage.Mem.create () in
  let storage = Oodb.Storage.Mem.storage fs in
  ignore (Persist.save_delta ~storage src "d");
  check_dropped "delta" (Oodb.Storage.Mem.contents fs "d") (fun db ->
      match Persist.apply_delta ~storage db "d" with
      | `Applied -> ()
      | `Stale -> Alcotest.fail "delta not applied")

(* Property: a store with random employees roundtrips attribute-exactly. *)
let prop_db_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"database roundtrip preserves attributes" ~count:40
       QCheck2.Gen.(list_size (int_bound 20) (pair (string_size (int_bound 6)) small_signed_int))
       (fun people ->
         let db = Db.create () in
         Workloads.Payroll.install db;
         let oids =
           List.map
             (fun (name, sal) ->
               new_employee db ~name ~salary:(float_of_int sal))
             people
         in
         let db2 = Db.create () in
         Workloads.Payroll.install db2;
         Persist.of_string db2 (Persist.to_string db);
         List.for_all
           (fun o -> Db.attrs db o = Db.attrs db2 o)
           oids))

let suite =
  [
    test "value codec cases" test_value_codec_cases;
    test "value codec rejects garbage" test_value_codec_errors;
    prop_value_roundtrip;
    test "database roundtrip" test_db_roundtrip;
    test "load rebuilds indexes" test_load_rebuilds_indexes;
    test "serialization is a fixpoint" test_roundtrip_is_fixpoint;
    test "load error handling" test_load_errors;
    test "save/load via file" test_save_load_file;
    test "atomic save cleans up its temp file" test_save_atomic_and_tmp_cleanup;
    test "pre-slot fixture loads and replays" test_preslot_fixture_compat;
    test "undeclared snapshot attribute dropped" test_undeclared_attribute_dropped;
    prop_db_roundtrip;
  ]

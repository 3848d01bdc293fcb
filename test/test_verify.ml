open Helpers
module Verify = Oodb.Verify

let check_ok db label =
  match Verify.check db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "%s: %s" label (String.concat "; " ps)

let test_sound_database () =
  let db = employee_db () in
  let e = new_employee db in
  let m = new_employee db ~cls:"manager" in
  Db.set db e "mgr" (Value.Obj m);
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"name" ();
  check_ok db "fresh";
  ignore (Db.send db e "set_salary" [ Value.Float 5. ]);
  Db.delete_object db m;
  check_ok db "after mutation and delete";
  Verify.check_exn db (* must not raise *)

let test_sound_after_abort_and_reload () =
  let db = employee_db () in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  let e = new_employee db ~salary:1. in
  Transaction.begin_ db;
  Db.set db e "salary" (Value.Float 2.);
  ignore (new_employee db);
  Db.delete_object db e;
  Transaction.abort db;
  check_ok db "after abort";
  (match Verify.check ~quiescent:true db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "quiescent: %s" (String.concat ";" ps));
  let db2 = Db.create () in
  Workloads.Payroll.install db2;
  Oodb.Persist.of_string db2 (Oodb.Persist.to_string db);
  check_ok db2 "after reload"

let test_quiescent_flag () =
  let db = employee_db () in
  Transaction.begin_ db;
  (match Verify.check ~quiescent:true db with
  | Error [ p ] ->
    Alcotest.(check bool) "mentions txn" true
      (contains_substring ~sub:"transaction" p)
  | _ -> Alcotest.fail "expected one violation");
  Alcotest.(check bool) "non-quiescent accepts" true (Verify.check db = Ok ());
  Transaction.abort db

let test_detects_corruption () =
  let db = employee_db () in
  let e = new_employee db ~salary:3. in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  (* corrupt the index behind the database's back *)
  let ix = Hashtbl.find db.Oodb.Types.indexes ("employee", "salary") in
  (match ix.Oodb.Types.ix_backing with
  | Oodb.Types.Ix_hash entries -> Hashtbl.remove entries (Value.Float 3.)
  | Oodb.Types.Ix_ordered _ -> assert false);
  (* the index's own fold, which Verify reads too, no longer holds the pair *)
  Alcotest.(check bool) "pair gone from the index" false
    (List.exists (fun (_, o) -> Oid.equal o e) (Db.index_pairs db ~cls:"employee" ~attr:"salary"));
  (match Verify.check db with
  | Error ps ->
    Alcotest.(check bool) "flags unindexed object" true
      (List.exists (contains_substring ~sub:"not indexed") ps)
  | Ok () -> Alcotest.fail "corruption not detected");
  (* corrupt a slot store: truncated array *)
  let db3 = employee_db () in
  let e3 = new_employee db3 in
  let o3 = Oodb.Oid.Table.find db3.Oodb.Types.objects e3 in
  o3.Oodb.Types.store <- Array.sub o3.Oodb.Types.store 0 1;
  match Verify.check db3 with
  | Error ps ->
    Alcotest.(check bool) "flags short slot array" true
      (List.exists (contains_substring ~sub:"slot") ps)
  | Ok () -> Alcotest.fail "truncated slot array not detected"

(* Problems come out in ascending OID, whatever the object table's hash
   order: corrupt objects in a scrambled order and read the report. *)
let test_problems_in_oid_order () =
  let db = employee_db () in
  let es = Array.init 64 (fun _ -> new_employee db) in
  let picked = List.init 24 (fun i -> es.((i * 37) mod 64)) in
  List.iter
    (fun e ->
      let o = Oid.Table.find db.Oodb.Types.objects e in
      o.Oodb.Types.store <- Array.sub o.Oodb.Types.store 0 1)
    picked;
  match Verify.check db with
  | Ok () -> Alcotest.fail "truncated slot arrays not detected"
  | Error ps ->
    let reported =
      List.map (fun p -> Oid.of_int (Scanf.sscanf p "@%d:" Fun.id)) ps
    in
    Alcotest.(check (list oid)) "ascending OID" (List.sort Oid.compare picked) reported

(* Property: random committed/aborted workloads never break integrity. *)
let prop_workloads_stay_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random workloads keep the database sound" ~count:60
       QCheck2.Gen.(
         pair bool
           (list_size (int_bound 30)
              (oneof
                 [
                   map (fun (i, v) -> `Set (i, v)) (pair (int_bound 5) small_signed_int);
                   return `Create;
                   map (fun i -> `Delete i) (int_bound 5);
                   map (fun b -> `Txn b) bool;
                 ])))
       (fun (with_index, ops) ->
         let db = employee_db () in
         if with_index then
           Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
         let base = Array.init 6 (fun _ -> new_employee db) in
         let apply op =
           try
             match op with
             | `Set (i, v) ->
               Db.set db base.(i) "salary" (Value.Float (float_of_int v))
             | `Create -> ignore (new_employee db)
             | `Delete i -> Db.delete_object db base.(i)
             | `Txn _ -> ()
           with Errors.No_such_object _ | Errors.Dead_object _ -> ()
         in
         List.iter
           (fun op ->
             match op with
             | `Txn commit ->
               Transaction.begin_ db;
               apply `Create;
               apply (`Set (0, 9));
               if commit then Transaction.commit db else Transaction.abort db
             | other -> apply other)
           ops;
         Verify.check ~quiescent:true db = Ok ()))

let suite =
  [
    test "sound database" test_sound_database;
    test "sound after abort and reload" test_sound_after_abort_and_reload;
    test "quiescent flag" test_quiescent_flag;
    test "detects corruption" test_detects_corruption;
    test "problems in ascending OID" test_problems_in_oid_order;
    prop_workloads_stay_sound;
  ]

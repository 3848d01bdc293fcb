open Helpers
module Session = Oodb.Session

let fixture () =
  let db = employee_db () in
  let m = Session.manager db in
  let alice = Session.session ~name:"alice" m in
  let bob = Session.session ~name:"bob" m in
  let e = new_employee db ~salary:100. in
  (db, m, alice, bob, e)

let expect_conflict label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Lock_conflict" label
  | exception Errors.Lock_conflict _ -> ()

let test_basic_commit () =
  let db, _m, alice, _bob, e = fixture () in
  Session.begin_ alice;
  Alcotest.check value "read" (Value.Float 100.) (Session.get alice e "salary");
  Session.set alice e "salary" (Value.Float 200.);
  Session.commit alice;
  Alcotest.check value "committed" (Value.Float 200.) (Db.get db e "salary");
  Alcotest.(check bool) "inactive" false (Session.active alice);
  Alcotest.(check int) "locks released" 0 (List.length (Session.locks_held alice))

let test_abort_undoes_in_reverse () =
  let db, _m, alice, _bob, e = fixture () in
  let e2 = new_employee db ~salary:5. in
  Session.begin_ alice;
  Session.set alice e "salary" (Value.Float 1.);
  Session.set alice e2 "salary" (Value.Float 2.);
  Session.set alice e "salary" (Value.Float 3.);
  Session.abort alice;
  Alcotest.check value "first restored" (Value.Float 100.) (Db.get db e "salary");
  Alcotest.check value "second restored" (Value.Float 5.) (Db.get db e2 "salary")

let test_shared_readers_coexist () =
  let _db, _m, alice, bob, e = fixture () in
  Session.begin_ alice;
  Session.begin_ bob;
  ignore (Session.get alice e "salary");
  ignore (Session.get bob e "salary"); (* no conflict *)
  Alcotest.(check (list (pair oid (Alcotest.testable (fun ppf -> function
    | `Shared -> Format.pp_print_string ppf "S"
    | `Exclusive -> Format.pp_print_string ppf "X") ( = )))))
    "alice holds S" [ (e, `Shared) ] (Session.locks_held alice);
  Session.commit alice;
  Session.commit bob

let test_write_conflicts () =
  let _db, m, alice, bob, e = fixture () in
  Session.begin_ alice;
  Session.begin_ bob;
  Session.set alice e "salary" (Value.Float 1.);
  (* bob cannot read or write it *)
  expect_conflict "read vs X" (fun () -> Session.get bob e "salary");
  expect_conflict "write vs X" (fun () -> Session.set bob e "salary" (Value.Float 2.));
  Alcotest.(check int) "conflicts counted" 2 (Session.conflicts m);
  (* after alice commits, bob proceeds *)
  Session.commit alice;
  Session.set bob e "salary" (Value.Float 3.);
  Session.commit bob

let test_reader_blocks_writer () =
  let _db, _m, alice, bob, e = fixture () in
  Session.begin_ alice;
  Session.begin_ bob;
  ignore (Session.get alice e "salary");
  expect_conflict "write vs S" (fun () -> Session.set bob e "salary" (Value.Float 1.));
  (* shared read still fine *)
  ignore (Session.get bob e "salary");
  Session.abort alice;
  Session.abort bob

let test_lock_upgrade () =
  let db, _m, alice, bob, e = fixture () in
  Session.begin_ alice;
  ignore (Session.get alice e "salary");
  (* sole holder upgrades S -> X *)
  Session.set alice e "salary" (Value.Float 7.);
  Alcotest.(check bool) "upgraded" true
    (List.mem (e, `Exclusive) (Session.locks_held alice));
  Session.commit alice;
  Alcotest.check value "write took" (Value.Float 7.) (Db.get db e "salary");
  (* upgrade blocked when another reader exists *)
  Session.begin_ alice;
  Session.begin_ bob;
  ignore (Session.get alice e "salary");
  ignore (Session.get bob e "salary");
  expect_conflict "upgrade vs reader" (fun () ->
      Session.set alice e "salary" (Value.Float 8.));
  Session.abort alice;
  Session.abort bob

let test_create_delete () =
  let db, _m, alice, bob, _e = fixture () in
  Session.begin_ alice;
  Session.begin_ bob;
  let fresh = Session.new_object alice "employee" in
  (* born locked: bob can't touch it *)
  expect_conflict "fresh object locked" (fun () -> Session.get bob fresh "salary");
  Session.abort alice;
  Alcotest.(check bool) "creation undone" false (Db.exists db fresh);
  (* delete + abort resurrects with identity and state *)
  let victim = new_employee db ~salary:42. ~name:"victim" in
  Session.begin_ alice;
  Session.delete_object alice victim;
  Alcotest.(check bool) "gone inside" false (Db.exists db victim);
  Session.abort alice;
  Alcotest.(check bool) "resurrected" true (Db.exists db victim);
  Alcotest.check value "state restored" (Value.Float 42.) (Db.get db victim "salary");
  Session.commit bob;
  (* committed delete sticks *)
  Session.begin_ alice;
  Session.delete_object alice victim;
  Session.commit alice;
  Alcotest.(check bool) "deleted for real" false (Db.exists db victim)

let test_send_with_rollback () =
  let db, _m, alice, _bob, e = fixture () in
  Session.begin_ alice;
  ignore (Session.send alice e "set_salary" [ Value.Float 900. ]);
  Alcotest.check value "visible inside" (Value.Float 900.) (Db.get db e "salary");
  Session.abort alice;
  Alcotest.check value "receiver state restored" (Value.Float 100.)
    (Db.get db e "salary")

let test_misuse () =
  let db, _m, alice, _bob, e = fixture () in
  check_raises_any "get outside txn" (fun () -> Session.get alice e "salary");
  check_raises_any "commit outside txn" (fun () -> Session.commit alice);
  Session.begin_ alice;
  check_raises_any "double begin" (fun () -> Session.begin_ alice);
  Session.abort alice;
  (* sessions and the global transaction stack must not mix *)
  Transaction.begin_ db;
  check_raises_any "global txn open" (fun () -> Session.begin_ alice);
  Transaction.abort db

let test_interleaved_serializable () =
  (* classic interleaving: both transfer between disjoint object pairs;
     both commit; the result equals some serial order *)
  let db, _m, alice, bob, _ = fixture () in
  let a1 = new_employee db ~salary:10. and a2 = new_employee db ~salary:0. in
  let b1 = new_employee db ~salary:20. and b2 = new_employee db ~salary:0. in
  Session.begin_ alice;
  Session.begin_ bob;
  (* interleaved steps on disjoint data *)
  Session.set alice a1 "salary" (Value.Float 0.);
  Session.set bob b1 "salary" (Value.Float 0.);
  Session.set alice a2 "salary" (Value.Float 10.);
  Session.set bob b2 "salary" (Value.Float 20.);
  Session.commit bob;
  Session.commit alice;
  let v o = Value.to_float (Db.get db o "salary") in
  Alcotest.(check (float 0.)) "alice transfer" 10. (v a2);
  Alcotest.(check (float 0.)) "bob transfer" 20. (v b2);
  Alcotest.(check (float 0.)) "conserved" 30. (v a1 +. v a2 +. v b1 +. v b2)

(* An aborted delete brings the object back with its consumers in their
   original order, so delivery order is unchanged too. *)
let test_delete_abort_keeps_consumer_order () =
  let db = employee_db () in
  let sys = System.create db in
  let order = ref [] in
  let consumer name =
    System.create_notifiable sys ~name (fun _ -> order := name :: !order)
  in
  let first = consumer "first" and second = consumer "second" in
  let e = new_employee db in
  Db.subscribe db ~reactive:e ~consumer:first;
  Db.subscribe db ~reactive:e ~consumer:second;
  let deliveries () =
    order := [];
    ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
    List.rev !order
  in
  let consumers = Db.consumers_of db e and delivered = deliveries () in
  Alcotest.(check (list string))
    "both delivered" [ "first"; "second" ] (List.sort compare delivered);
  let alice = Session.session ~name:"alice" (Session.manager db) in
  Session.begin_ alice;
  Session.delete_object alice e;
  Session.abort alice;
  Alcotest.(check (list oid)) "consumers" consumers (Db.consumers_of db e);
  Alcotest.(check (list string)) "delivery order" delivered (deliveries ())

let suite =
  [
    test "basic commit" test_basic_commit;
    test "abort undoes in reverse" test_abort_undoes_in_reverse;
    test "shared readers coexist" test_shared_readers_coexist;
    test "write conflicts" test_write_conflicts;
    test "reader blocks writer" test_reader_blocks_writer;
    test "lock upgrade" test_lock_upgrade;
    test "create and delete" test_create_delete;
    test "send with rollback" test_send_with_rollback;
    test "misuse" test_misuse;
    test "interleaved serializable" test_interleaved_serializable;
    test "aborted delete keeps consumer order"
      test_delete_abort_keeps_consumer_order;
  ]

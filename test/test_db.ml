open Helpers

let test_object_lifecycle () =
  let db = employee_db () in
  let e = new_employee db ~name:"ann" ~salary:2000. in
  Alcotest.(check bool) "exists" true (Db.exists db e);
  Alcotest.(check string) "class_of" "employee" (Db.class_of db e);
  Alcotest.check value "attr" (Value.Str "ann") (Db.get db e "name");
  Alcotest.check value "default attr" (Value.Float 2000.) (Db.get db e "salary");
  Db.delete_object db e;
  Alcotest.(check bool) "deleted" false (Db.exists db e);
  Alcotest.check_raises "get after delete" (Errors.No_such_object e) (fun () ->
      ignore (Db.get db e "name"))

let test_attr_errors () =
  let db = employee_db () in
  let e = new_employee db in
  Alcotest.check_raises "unknown get"
    (Errors.No_such_attribute ("employee", "shoe_size"))
    (fun () -> ignore (Db.get db e "shoe_size"));
  Alcotest.check_raises "unknown set"
    (Errors.No_such_attribute ("employee", "shoe_size"))
    (fun () -> Db.set db e "shoe_size" (Value.Int 42));
  Alcotest.check_raises "unknown attr at creation"
    (Errors.No_such_attribute ("employee", "bogus"))
    (fun () -> ignore (Db.new_object db "employee" ~attrs:[ ("bogus", Value.Null) ]));
  Alcotest.check_raises "unknown class" (Errors.No_such_class "robot") (fun () ->
      ignore (Db.new_object db "robot"))

let test_send_dispatch () =
  let db = employee_db () in
  let e = new_employee db ~salary:100. in
  ignore (Db.send db e "set_salary" [ Value.Float 250. ]);
  Alcotest.check value "method ran" (Value.Float 250.) (Db.get db e "salary");
  Alcotest.check value "return value" (Value.Float 250.)
    (Db.send db e "get_salary" []);
  Alcotest.check_raises "unknown method"
    (Errors.No_such_method ("employee", "resign"))
    (fun () -> ignore (Db.send db e "resign" []))

let test_send_inheritance () =
  let db = employee_db () in
  let m = new_employee db ~cls:"manager" ~salary:9000. in
  (* manager inherits employee's methods and event interface *)
  ignore (Db.send db m "set_salary" [ Value.Float 9500. ]);
  Alcotest.check value "inherited method" (Value.Float 9500.)
    (Db.get db m "salary");
  Alcotest.(check bool) "is_instance_of super" true
    (Db.is_instance_of db m "employee");
  Alcotest.(check bool) "not instance of sibling" false
    (Db.is_instance_of db (new_employee db) "manager")

let test_event_generation_counts () =
  let db = employee_db () in
  let e = new_employee db in
  Db.reset_stats db;
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]); (* eom *)
  ignore (Db.send db e "get_age" []); (* bom + eom *)
  ignore (Db.send db e "get_name" []); (* passive method: none *)
  Alcotest.(check int) "events" 3 (Db.stats db).events_generated;
  Alcotest.(check int) "sends" 3 (Db.stats db).sends

let test_instance_subscription () =
  let db, sys, collector, seen = sys_with_collector () in
  ignore sys;
  let e1 = new_employee db and e2 = new_employee db in
  Db.subscribe db ~reactive:e1 ~consumer:collector;
  ignore (Db.send db e1 "set_salary" [ Value.Float 5. ]);
  ignore (Db.send db e2 "set_salary" [ Value.Float 6. ]);
  let occs = seen () in
  Alcotest.(check int) "only subscribed source" 1 (List.length occs);
  (match occs with
  | [ o ] ->
    Alcotest.check oid "source" e1 o.source;
    Alcotest.(check string) "method" "set_salary" o.meth;
    Alcotest.check (Alcotest.list value) "params" [ Value.Float 5. ] o.params
  | _ -> Alcotest.fail "expected one occurrence");
  (* unsubscribe stops delivery; resubscribing twice is idempotent *)
  Db.subscribe db ~reactive:e1 ~consumer:collector;
  Alcotest.(check int) "idempotent subscribe" 1
    (List.length (Db.consumers_of db e1));
  Db.unsubscribe db ~reactive:e1 ~consumer:collector;
  ignore (Db.send db e1 "set_salary" [ Value.Float 7. ]);
  Alcotest.(check int) "after unsubscribe" 1 (List.length (seen ()))

let test_class_subscription () =
  let db, sys, collector, seen = sys_with_collector () in
  ignore sys;
  Db.subscribe_class db ~cls:"employee" ~consumer:collector;
  let e = new_employee db and m = new_employee db ~cls:"manager" in
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  (* class-level subscription covers subclass instances *)
  ignore (Db.send db m "set_salary" [ Value.Float 2. ]);
  Alcotest.(check int) "both delivered" 2 (List.length (seen ()));
  (* instance + class subscription: delivered once *)
  Db.subscribe db ~reactive:e ~consumer:collector;
  ignore (Db.send db e "set_salary" [ Value.Float 3. ]);
  Alcotest.(check int) "deduplicated" 3 (List.length (seen ()));
  Db.unsubscribe_class db ~cls:"employee" ~consumer:collector;
  ignore (Db.send db m "set_salary" [ Value.Float 4. ]);
  Alcotest.(check int) "class unsubscribed" 3 (List.length (seen ()))

let test_explicit_signal () =
  let db, sys, collector, seen = sys_with_collector () in
  ignore sys;
  let e = new_employee db in
  Db.subscribe db ~reactive:e ~consumer:collector;
  Db.signal db ~source:e ~meth:"custom_event" ~modifier:Oodb.Types.After
    [ Value.Int 1 ];
  match seen () with
  | [ o ] ->
    Alcotest.(check string) "explicit event" "custom_event" o.meth;
    Alcotest.(check string) "class recorded" "employee" o.source_class
  | _ -> Alcotest.fail "expected one occurrence"

let test_taps () =
  let db = employee_db () in
  let count = ref 0 in
  Db.add_tap db (fun _ _ -> incr count);
  let e = new_employee db in
  (* taps see events even with no subscriptions at all *)
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "tap saw it" 1 !count;
  Db.clear_taps db;
  ignore (Db.send db e "set_salary" [ Value.Float 2. ]);
  Alcotest.(check int) "cleared" 1 !count

let test_extents () =
  let db = employee_db () in
  let e1 = new_employee db and e2 = new_employee db in
  let m = new_employee db ~cls:"manager" in
  Alcotest.(check (list oid))
    "shallow employee" [ e1; e2 ]
    (Db.extent db ~deep:false "employee");
  Alcotest.(check (list oid))
    "deep employee" [ e1; e2; m ]
    (Db.extent db ~deep:true "employee");
  Alcotest.(check (list oid)) "manager" [ m ] (Db.extent db "manager");
  Db.delete_object db e1;
  Alcotest.(check (list oid))
    "after delete" [ e2; m ]
    (Db.extent db ~deep:true "employee")

let test_clock () =
  let db = Db.create () in
  Alcotest.(check int) "starts at 0" 0 (Db.now db);
  Alcotest.(check int) "tick" 1 (Db.tick db);
  Db.advance_clock db 10;
  Alcotest.(check int) "advance" 10 (Db.now db);
  Db.advance_clock db 5;
  Alcotest.(check int) "never backwards" 10 (Db.now db)

let test_no_such_object () =
  let db = Db.create () in
  let ghost = Oid.of_int 999 in
  Alcotest.check_raises "get" (Errors.No_such_object ghost) (fun () ->
      ignore (Db.get db ghost "x"));
  Alcotest.(check bool) "exists false" false (Db.exists db ghost)

(* The radix sort behind Db.extent and index builds agrees with a
   comparison sort, on both sides of its short-array cutoff and for OIDs of
   up to 40 bits. *)
let test_oid_sort () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun (n, bound) ->
      let a = Array.init n (fun _ -> Oid.of_int (Random.State.full_int rng bound)) in
      let expected = List.sort Oid.compare (Array.to_list a) in
      Oid.sort a;
      Alcotest.(check (list oid)) (Printf.sprintf "%d OIDs below %d" n bound) expected
        (Array.to_list a))
    [ (0, 1); (1, 10); (255, 1_000); (256, 1_000); (3_000, 100_000); (3_000, 1 lsl 40) ]

let suite =
  [
    test "object lifecycle" test_object_lifecycle;
    test "attribute errors" test_attr_errors;
    test "send dispatch" test_send_dispatch;
    test "send with inheritance" test_send_inheritance;
    test "event generation counts" test_event_generation_counts;
    test "instance subscription" test_instance_subscription;
    test "class subscription" test_class_subscription;
    test "explicit signal" test_explicit_signal;
    test "centralized taps" test_taps;
    test "extents" test_extents;
    test "logical clock" test_clock;
    test "missing objects" test_no_such_object;
    test "Oid.sort = comparison sort" test_oid_sort;
  ]

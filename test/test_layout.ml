(* The compiled slot layout: pre-resolved slot handles, schema evolution
   over live slot arrays, the occurrence ordering contract and the
   tail-safety of Db.iter_rev. *)

open Helpers
module Evolution = Oodb.Evolution
module Query = Oodb.Query
module Symbol = Oodb.Symbol

(* --- Occurrence.compare is total over identifying fields ---------------- *)

let test_occurrence_compare_total () =
  let base = mk_occ ~at:5 "credit" Oodb.Types.Before in
  let after = mk_occ ~at:5 "credit" Oodb.Types.After in
  Alcotest.(check bool) "modifier distinguishes" true
    (Oodb.Occurrence.compare base after <> 0);
  Alcotest.(check bool) "begin sorts before end" true
    (Oodb.Occurrence.compare base after < 0);
  let other_class = mk_occ ~cls:"manager" ~at:5 "credit" Oodb.Types.Before in
  Alcotest.(check bool) "source class distinguishes" true
    (Oodb.Occurrence.compare base other_class <> 0);
  Alcotest.(check int) "equal occurrences compare 0" 0
    (Oodb.Occurrence.compare base (mk_occ ~at:5 "credit" Oodb.Types.Before));
  (* antisymmetry on the new fields *)
  Alcotest.(check int) "antisymmetric (modifier)" 0
    (Oodb.Occurrence.compare base after + Oodb.Occurrence.compare after base);
  Alcotest.(check int) "antisymmetric (class)" 0
    (Oodb.Occurrence.compare base other_class
    + Oodb.Occurrence.compare other_class base)

let test_occurrence_symbols_consistent () =
  let o = mk_occ ~cls:"employee" ~at:1 "set_salary" Oodb.Types.After in
  Alcotest.(check string) "meth_sym names meth" o.meth (Symbol.name o.meth_sym);
  Alcotest.(check string) "class_sym names class" o.source_class
    (Symbol.name o.class_sym)

(* --- iter_rev: order and tail safety ------------------------------------ *)

let test_iter_rev_100k () =
  let n = 100_000 in
  let l = List.init n (fun i -> i) in
  (* newest-first storage: iter_rev must visit oldest first *)
  let seen = ref [] and count = ref 0 in
  Db.iter_rev
    (fun x ->
      incr count;
      if !count <= 3 then seen := x :: !seen)
    l;
  Alcotest.(check int) "visits all" n !count;
  Alcotest.(check (list int)) "oldest first" [ n - 3; n - 2; n - 1 ]
    !seen

let test_broadcast_100k_consumers () =
  let db = employee_db () in
  let e = new_employee db in
  (* 100k subscribers via the raw consumers list: Db.subscribe's dedup scan
     is O(n) per call, so building the list through the API would be
     quadratic; broadcast itself must stay linear and stack-safe. *)
  let o = Oodb.Oid.Table.find db.Oodb.Types.objects e in
  o.Oodb.Types.consumers <- List.init 100_000 (fun i -> Oid.of_int (1_000 + i));
  let heard = ref 0 in
  Db.set_notify db (fun _ ~consumer:_ _ -> incr heard);
  Db.signal db ~source:e ~meth:"poke" ~modifier:Oodb.Types.After [];
  Alcotest.(check int) "every consumer notified once" 100_000 !heard

(* --- slot handles -------------------------------------------------------- *)

let test_resolve_and_slot_access () =
  let db = employee_db () in
  let e = new_employee db ~salary:7. in
  let salary = Db.resolve db "employee" "salary" in
  Alcotest.check value "slot_get" (Value.Float 7.) (Db.slot_get db e salary);
  Db.slot_set db e salary (Value.Float 9.);
  Alcotest.check value "visible via strings" (Value.Float 9.)
    (Db.get db e "salary");
  (* prefix invariant: the handle resolved on employee works on manager *)
  let m = new_employee db ~cls:"manager" ~salary:20. in
  Alcotest.check value "works on subclass instance" (Value.Float 20.)
    (Db.slot_get db m salary);
  (match Db.resolve db "employee" "no_such" with
  | _ -> Alcotest.fail "resolved a missing attribute"
  | exception Errors.No_such_attribute _ -> ());
  (* slot writes are undo-logged like string writes *)
  Transaction.begin_ db;
  Db.slot_set db e salary (Value.Float 1000.);
  Transaction.abort db;
  Alcotest.check value "rolled back" (Value.Float 9.) (Db.get db e "salary")

let test_stale_handle_re_resolves () =
  let db = employee_db () in
  let e = new_employee db in
  (* resolve, then shift the layout underneath the handle *)
  let age = Db.resolve db "employee" "age" in
  ignore (Evolution.remove_attribute db ~cls:"employee" ~attr:"name");
  Db.slot_set db e age (Value.Int 44);
  Alcotest.check value "stale handle still lands on the right attribute"
    (Value.Int 44) (Db.get db e "age")

(* --- schema evolution over live slot arrays ------------------------------ *)

(* Each scenario populates a database (instances of both classes, an index
   on salary), evolves it, and ends by loading its snapshot into a fresh
   store given the same schema change, to prove the change survives
   persistence. *)

let test_evolution_add_under_slots () =
  let db = employee_db () in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  let e = new_employee db ~salary:5. in
  let m = new_employee db ~cls:"manager" ~salary:6. in
  let touched = Evolution.add_attribute db ~cls:"employee" ~attr:"grade" ~default:(Value.Int 1) in
  Alcotest.(check int) "both instances backfilled" 2 touched;
  Alcotest.check value "backfilled" (Value.Int 1) (Db.get db e "grade");
  Alcotest.check value "subclass backfilled" (Value.Int 1) (Db.get db m "grade");
  Alcotest.(check (list oid)) "index survived the migration" [ e ]
    (Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float 5.));
  Oodb.Verify.check_exn db;
  (* snapshot → reload on a store with the same evolved schema *)
  let db2 = employee_db () in
  ignore (Evolution.add_attribute db2 ~cls:"employee" ~attr:"grade" ~default:(Value.Int 1));
  Oodb.Persist.of_string db2 (Oodb.Persist.to_string db);
  Alcotest.check value "value survives reload" (Value.Int 1) (Db.get db2 e "grade");
  Alcotest.(check (list oid)) "index rebuilt on reload" [ e ]
    (Db.index_lookup db2 ~cls:"employee" ~attr:"salary" (Value.Float 5.));
  Oodb.Verify.check_exn db2

let test_evolution_remove_under_slots () =
  let db = employee_db () in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  let e = new_employee db ~name:"ann" ~salary:5. in
  let touched = Evolution.remove_attribute db ~cls:"employee" ~attr:"name" in
  Alcotest.(check int) "instance touched" 1 touched;
  (match Db.get db e "name" with
  | _ -> Alcotest.fail "removed attribute still readable"
  | exception Errors.No_such_attribute _ -> ());
  Alcotest.(check (list oid)) "dropped attribute's index emptied" []
    (Db.index_lookup db ~cls:"employee" ~attr:"name" (Value.Str "ann"));
  Alcotest.(check (list oid)) "other index intact" [ e ]
    (Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float 5.));
  Oodb.Verify.check_exn db;
  let db2 = employee_db () in
  ignore (Evolution.remove_attribute db2 ~cls:"employee" ~attr:"name");
  Oodb.Persist.of_string db2 (Oodb.Persist.to_string db);
  Alcotest.check value "remaining attrs survive reload" (Value.Float 5.)
    (Db.get db2 e "salary");
  Oodb.Verify.check_exn db2

let test_evolution_rename_under_slots () =
  let db = employee_db () in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  let e = new_employee db ~salary:5. in
  let m = new_employee db ~cls:"manager" ~salary:8. in
  let touched = Evolution.rename_attribute db ~cls:"employee" ~attr:"salary" ~into:"pay" in
  Alcotest.(check int) "instances carried" 2 touched;
  Alcotest.check value "value under new name" (Value.Float 5.) (Db.get db e "pay");
  Alcotest.check value "subclass value carried" (Value.Float 8.) (Db.get db m "pay");
  (match Db.get db e "salary" with
  | _ -> Alcotest.fail "old name still readable"
  | exception Errors.No_such_attribute _ -> ());
  (* the index followed the rename, entries intact *)
  Alcotest.(check bool) "index re-keyed" true
    (Db.has_index db ~cls:"employee" ~attr:"pay");
  Alcotest.(check bool) "old index key gone" false
    (Db.has_index db ~cls:"employee" ~attr:"salary");
  Alcotest.(check (list oid)) "index entries survive" [ e ]
    (Db.index_lookup db ~cls:"employee" ~attr:"pay" (Value.Float 5.));
  Oodb.Verify.check_exn db;
  let db2 = employee_db () in
  ignore (Evolution.rename_attribute db2 ~cls:"employee" ~attr:"salary" ~into:"pay");
  Oodb.Persist.of_string db2 (Oodb.Persist.to_string db);
  Alcotest.check value "renamed value survives reload" (Value.Float 5.)
    (Db.get db2 e "pay");
  Alcotest.(check (list oid)) "re-keyed index rebuilt on reload" [ e ]
    (Db.index_lookup db2 ~cls:"employee" ~attr:"pay" (Value.Float 5.));
  Oodb.Verify.check_exn db2

let test_rename_validation () =
  let db = employee_db () in
  let bad f =
    match f () with
    | _ -> Alcotest.fail "expected Type_error"
    | exception Errors.Type_error _ -> ()
  in
  bad (fun () -> Evolution.rename_attribute db ~cls:"employee" ~attr:"nope" ~into:"x");
  bad (fun () -> Evolution.rename_attribute db ~cls:"employee" ~attr:"salary" ~into:"name");
  bad (fun () -> Evolution.rename_attribute db ~cls:"employee" ~attr:"salary" ~into:"salary");
  (* a name declared by a subclass is also off-limits *)
  Db.define_class db
    (Schema.define "temp" ~super:"employee" ~attrs:[ ("badge", Value.Int 0) ]);
  bad (fun () -> Evolution.rename_attribute db ~cls:"employee" ~attr:"salary" ~into:"badge")

(* --- Query.matches probes once per candidate ------------------------------ *)

let test_query_probes_once () =
  let db = employee_db () in
  for i = 1 to 10 do
    ignore (new_employee db ~salary:(float_of_int i))
  done;
  Query.reset_probes ();
  let p =
    Query.And
      ( Query.Ge ("salary", Value.Float 3.),
        Query.And
          (Query.Le ("salary", Value.Float 8.), Query.Has "name") )
  in
  let hits = Query.select db "employee" p in
  Alcotest.(check int) "six match" 6 (List.length hits);
  Alcotest.(check int) "one object fetch per candidate (10 candidates)" 10
    (Query.probes ())

let suite =
  [
    test "occurrence compare is total" test_occurrence_compare_total;
    test "occurrence symbols consistent" test_occurrence_symbols_consistent;
    test "iter_rev handles 100k entries" test_iter_rev_100k;
    test "broadcast reaches 100k consumers" test_broadcast_100k_consumers;
    test "resolve and slot access" test_resolve_and_slot_access;
    test "stale slot handle re-resolves" test_stale_handle_re_resolves;
    test "add attribute under slots" test_evolution_add_under_slots;
    test "remove attribute under slots" test_evolution_remove_under_slots;
    test "rename attribute under slots" test_evolution_rename_under_slots;
    test "rename validation" test_rename_validation;
    test "query probes once per candidate" test_query_probes_once;
  ]

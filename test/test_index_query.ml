open Helpers
module Query = Oodb.Query
module Verify = Oodb.Verify

let db_with_index () =
  let db = employee_db () in
  let emps =
    List.init 10 (fun i ->
        new_employee db
          ~name:(Printf.sprintf "e%d" i)
          ~salary:(float_of_int (100 * (i mod 3))))
  in
  let mgr = new_employee db ~cls:"manager" ~salary:0. ~name:"m0" in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  (db, emps, mgr)

let lookup db v =
  Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float v)

let test_index_builds_over_existing () =
  let db, _, mgr = db_with_index () in
  (* 0,3,6,9 have salary 0, plus the manager *)
  Alcotest.(check int) "bucket size" 5 (List.length (lookup db 0.));
  Alcotest.(check bool) "includes subclass instance" true
    (List.exists (Oid.equal mgr) (lookup db 0.))

let test_index_maintained_on_set () =
  let db, emps, _ = db_with_index () in
  let e = List.hd emps in
  Db.set db e "salary" (Value.Float 777.);
  Alcotest.(check (list oid)) "new bucket" [ e ] (lookup db 777.);
  Alcotest.(check bool) "old bucket updated" true
    (not (List.exists (Oid.equal e) (lookup db 0.)))

let test_index_maintained_on_create_delete () =
  let db, _, _ = db_with_index () in
  let e = new_employee db ~salary:555. in
  Alcotest.(check (list oid)) "new object indexed" [ e ] (lookup db 555.);
  Db.delete_object db e;
  Alcotest.(check (list oid)) "removed on delete" [] (lookup db 555.)

let test_index_consistent_after_abort () =
  let db, emps, _ = db_with_index () in
  let e = List.hd emps in
  Transaction.begin_ db;
  Db.set db e "salary" (Value.Float 888.);
  let e2 = new_employee db ~salary:888. in
  Alcotest.(check int) "inside txn" 2 (List.length (lookup db 888.));
  ignore e2;
  Transaction.abort db;
  Alcotest.(check (list oid)) "bucket emptied by abort" [] (lookup db 888.);
  Alcotest.(check bool) "back in old bucket" true
    (List.exists (Oid.equal e) (lookup db 0.))

let test_index_management () =
  let db, _, _ = db_with_index () in
  Alcotest.(check bool) "has" true (Db.has_index db ~cls:"employee" ~attr:"salary");
  Db.create_index db ~cls:"employee" ~attr:"salary" (); (* idempotent *)
  Db.drop_index db ~cls:"employee" ~attr:"salary";
  Alcotest.(check bool) "dropped" false
    (Db.has_index db ~cls:"employee" ~attr:"salary");
  check_raises_any "lookup after drop" (fun () -> lookup db 0.)

let test_query_predicates () =
  let db, _, _ = db_with_index () in
  let q p = List.length (Query.select db "employee" p) in
  Alcotest.(check int) "eq" 5 (q (Query.Eq ("salary", Value.Float 0.)));
  Alcotest.(check int) "ne" 6 (q (Query.Ne ("salary", Value.Float 0.)));
  Alcotest.(check int) "lt" 5 (q (Query.Lt ("salary", Value.Float 100.)));
  Alcotest.(check int) "le" 8 (q (Query.Le ("salary", Value.Float 100.)));
  Alcotest.(check int) "gt" 3 (q (Query.Gt ("salary", Value.Float 100.)));
  Alcotest.(check int) "ge" 6 (q (Query.Ge ("salary", Value.Float 100.)));
  Alcotest.(check int) "true" 11 (q Query.True);
  Alcotest.(check int) "and" 2
    (q (Query.And (Query.Eq ("salary", Value.Float 100.), Query.Ne ("name", Value.Str "e1"))));
  Alcotest.(check int) "or" 8
    (q (Query.Or (Query.Eq ("salary", Value.Float 0.), Query.Eq ("salary", Value.Float 100.))));
  Alcotest.(check int) "not" 6 (q (Query.Not (Query.Eq ("salary", Value.Float 0.))));
  Alcotest.(check int) "has" 11 (q (Query.Has "salary"));
  Alcotest.(check int) "shallow" 4
    (List.length
       (Query.select db ~deep:false "employee" (Query.Eq ("salary", Value.Float 0.))))

let test_query_missing_attr_is_false () =
  let db = Db.create () in
  Db.define_class db (Schema.define "a" ~attrs:[ ("x", Value.Int 1) ]);
  Db.define_class db (Schema.define "b" ~super:"a" ~attrs:[ ("y", Value.Int 2) ]);
  let _a = Db.new_object db "a" in
  let b = Db.new_object db "b" in
  (* querying the deep extent of [a] on [y]: plain [a]s simply don't match *)
  Alcotest.(check (list oid))
    "heterogeneous extent" [ b ]
    (Query.select db "a" (Query.Eq ("y", Value.Int 2)))

let test_ordered_index () =
  let db = employee_db () in
  let emps =
    List.init 20 (fun i -> new_employee db ~salary:(float_of_int (i * 10)))
  in
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  Alcotest.(check bool) "kind reported" true
    (Db.index_kind db ~cls:"employee" ~attr:"salary" = Some `Ordered);
  (* equality works on ordered indexes too *)
  Alcotest.(check (list oid)) "eq probe" [ List.nth emps 3 ]
    (Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float 30.));
  (* range probe *)
  Alcotest.(check int) "range probe" 3
    (List.length
       (Db.index_range db ~cls:"employee" ~attr:"salary"
          ~lo:(Value.Float 50., true) ~hi:(Value.Float 70., true) ()));
  (* maintained under mutation *)
  Db.set db (List.hd emps) "salary" (Value.Float 65.);
  Alcotest.(check int) "after set" 4
    (List.length
       (Db.index_range db ~cls:"employee" ~attr:"salary"
          ~lo:(Value.Float 50., true) ~hi:(Value.Float 70., true) ()));
  (* hash index refuses ranges *)
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  check_raises_any "hash range" (fun () ->
      ignore (Db.index_range db ~cls:"employee" ~attr:"name" ()))

let test_query_uses_ordered_index () =
  let db = employee_db () in
  List.iter
    (fun i -> ignore (new_employee db ~salary:(float_of_int i)))
    (List.init 50 (fun i -> i));
  let p = Query.And (Query.Ge ("salary", Value.Float 10.), Query.Lt ("salary", Value.Float 20.)) in
  let scan = Query.select db "employee" p in
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  Alcotest.(check (list oid)) "indexed = scan" scan (Query.select db "employee" p);
  Alcotest.(check int) "count" 10 (Query.count db "employee" p)

(* Property: index-accelerated select gives the same result as a scan. *)
let prop_index_matches_scan =
  QCheck2.Test.make ~name:"indexed select = scan select" ~count:50
    QCheck2.Gen.(list_size (int_bound 40) (int_bound 5))
    (fun salaries ->
      let db = employee_db () in
      List.iter
        (fun s -> ignore (new_employee db ~salary:(float_of_int s)))
        salaries;
      let p = Query.Eq ("salary", Value.Float 2.) in
      let scan = Query.select db "employee" p in
      Db.create_index db ~cls:"employee" ~attr:"salary" ();
      let indexed = Query.select db "employee" p in
      List.map Oid.to_int scan = List.map Oid.to_int indexed)

(* --- bulk builds equal incremental ones ----------------------------------------- *)

(* Int 1 and Float 1. are equal under Value.compare (one ordered-index key)
   but distinct hash keys. *)
let salary_pool =
  [| Value.Int 1; Value.Float 1.; Value.Int 2; Value.Float 2.5; Value.Str "x"; Value.Null |]

type index_op =
  | Create of bool * int  (** a manager?, salary *)
  | Delete of int
  | Set of int * int
  | Rolled_back of int * int  (** create, set and delete, then abort *)

let index_op_gen =
  let open QCheck2.Gen in
  let v = int_bound (Array.length salary_pool - 1) and k = int_bound 50 in
  frequency
    [
      (4, map2 (fun m v -> Create (m, v)) bool v);
      (2, map (fun k -> Delete k) k);
      (4, map2 (fun k v -> Set (k, v)) k v);
      (1, map2 (fun k v -> Rolled_back (k, v)) k v);
    ]

let apply_index_ops db ops =
  let live = ref [] in
  let pick k = List.nth !live (k mod List.length !live) in
  let create mgr v =
    Db.new_object db (if mgr then "manager" else "employee")
      ~attrs:[ ("salary", salary_pool.(v)) ]
  in
  List.iter
    (fun op ->
      match op with
      | Create (mgr, v) -> live := create mgr v :: !live
      | _ when !live = [] -> ()
      | Delete k ->
        let o = pick k in
        Db.delete_object db o;
        live := List.filter (fun x -> not (Oid.equal x o)) !live
      | Set (k, v) -> Db.set db (pick k) "salary" salary_pool.(v)
      | Rolled_back (k, v) ->
        Transaction.begin_ db;
        ignore (create (k mod 2 = 0) v);
        Db.set db (pick k) "salary" salary_pool.((v + 1) mod Array.length salary_pool);
        Db.delete_object db (pick (k + 1));
        Transaction.abort db)
    ops

(* Indexes on a class and on its subclass, maintained incrementally through
   the ops, then dropped and rebuilt in bulk: same pairs (keys exactly equal
   for a hash index, equal under Value.compare for an ordered one, whose
   entry keeps whichever equal value reached it first), same lookups, and
   both pass Verify. *)
let prop_bulk_equals_incremental =
  QCheck2.Test.make ~name:"bulk-built index = incrementally built index" ~count:100
    QCheck2.Gen.(pair (oneofl [ `Hash; `Ordered ]) (list_size (int_bound 120) index_op_gen))
    (fun (kind, ops) ->
      let db = employee_db () in
      let indexes = [ ("employee", "salary"); ("manager", "salary") ] in
      List.iter (fun (cls, attr) -> Db.create_index db ~kind ~cls ~attr ()) indexes;
      apply_index_ops db ops;
      let view (cls, attr) =
        ( Db.index_pairs db ~cls ~attr,
          Array.map (Db.index_lookup db ~cls ~attr) salary_pool )
      in
      let incremental = List.map view indexes in
      let ok_incremental = Verify.check db = Ok () in
      List.iter
        (fun (cls, attr) ->
          Db.drop_index db ~cls ~attr;
          Db.create_index db ~kind ~cls ~attr ())
        indexes;
      let bulk = List.map view indexes in
      let same_key a b = if kind = `Hash then compare a b = 0 else Value.equal a b in
      let same_pairs a b =
        List.length a = List.length b
        && List.for_all2 (fun (k1, o1) (k2, o2) -> Oid.equal o1 o2 && same_key k1 k2) a b
      in
      ok_incremental
      && Verify.check db = Ok ()
      && List.for_all2
           (fun (p1, l1) (p2, l2) -> same_pairs p1 p2 && l1 = l2)
           incremental bulk)

(* A key's OID set grows from one to three and shrinks back to none, under
   both kinds, built incrementally and in bulk at each step. *)
let test_one_many_one () =
  List.iter
    (fun kind ->
      let db = employee_db () in
      Db.create_index db ~kind ~cls:"employee" ~attr:"salary" ();
      let es = List.init 3 (fun _ -> new_employee db ~salary:5.) in
      let check label expected =
        let lookup () = Db.index_lookup db ~cls:"employee" ~attr:"salary" (Value.Float 5.) in
        Alcotest.(check (list oid)) label expected (lookup ());
        Alcotest.(check bool) (label ^ ": verify") true (Verify.check db = Ok ());
        Db.drop_index db ~cls:"employee" ~attr:"salary";
        Db.create_index db ~kind ~cls:"employee" ~attr:"salary" ();
        Alcotest.(check (list oid)) (label ^ ": bulk") expected (lookup ())
      in
      check "three" es;
      List.iteri
        (fun i e ->
          Db.set db e "salary" (Value.Float 6.);
          check (Printf.sprintf "%d left" (2 - i)) (List.filteri (fun j _ -> j > i) es))
        es)
    [ `Hash; `Ordered ]

let suite =
  [
    test "index builds over existing objects" test_index_builds_over_existing;
    test "index maintained on set" test_index_maintained_on_set;
    test "index maintained on create/delete" test_index_maintained_on_create_delete;
    test "index consistent after abort" test_index_consistent_after_abort;
    test "index management" test_index_management;
    test "query predicates" test_query_predicates;
    test "query over heterogeneous extent" test_query_missing_attr_is_false;
    test "ordered index" test_ordered_index;
    test "query uses ordered index" test_query_uses_ordered_index;
    QCheck_alcotest.to_alcotest prop_index_matches_scan;
    QCheck_alcotest.to_alcotest prop_bulk_equals_incremental;
    test "a key goes one -> many -> one" test_one_many_one;
  ]

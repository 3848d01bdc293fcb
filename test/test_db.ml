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

(* 100k OIDs at each shard stride, and hand-built negative ones, spread
   over the buckets: no bucket holds more than a handful.  (Hashing the
   ints at random would give about 9 here.) *)
let test_oid_table_spread () =
  let spread name oids =
    let t = Oid.Table.create 16 in
    Seq.iter (fun o -> Oid.Table.replace t o ()) oids;
    let s = Oid.Table.stats t in
    Alcotest.(check int) (name ^ ": all kept") 100_000 s.Hashtbl.num_bindings;
    if s.Hashtbl.max_bucket_length > 6 then
      Alcotest.failf "%s: a bucket holds %d OIDs (%d buckets)" name
        s.Hashtbl.max_bucket_length s.Hashtbl.num_buckets
  in
  List.iter
    (fun stride ->
      for residue = 0 to min stride 3 - 1 do
        spread
          (Printf.sprintf "stride %d, residue %d" stride residue)
          (Seq.init 100_000 (fun i -> Oid.of_int (1 + residue + (i * stride))))
      done)
    [ 1; 2; 3; 4; 8 ];
  spread "negative" (Seq.init 100_000 (fun i -> Oid.of_int (-1 - i)));
  spread "negative, stride 8" (Seq.init 100_000 (fun i -> Oid.of_int (-8 * i)))

(* --- the dirty set and deltas ---------------------------------------------- *)

module Persist = Oodb.Persist
module Mem = Oodb.Storage.Mem

(* The bytes [Persist.save_delta] writes for [db]; the store's baseline
   moves to the delta, as it does in recovery. *)
let delta_bytes db =
  let fs = Mem.create () in
  ignore (Persist.save_delta ~storage:(Mem.storage fs) db "d");
  Mem.contents fs "d"

(* A store that was never saved, loaded or given a delta: creates (one of
   them a manager carrying a class subscription), sets, an index, a
   committed delete and an aborted one. *)
let nobase_store () =
  let db = employee_db () in
  Db.create_index db ~cls:"employee" ~attr:"salary" ();
  let es =
    Array.init 12 (fun i ->
        new_employee db
          ~cls:(if i mod 5 = 4 then "manager" else "employee")
          ~name:(Printf.sprintf "e%d" i)
          ~salary:(1000. +. float_of_int (i * 37 mod 11)))
  in
  Array.iteri
    (fun i e -> if i mod 3 = 0 then Db.set db e "age" (Value.Int (40 + i)))
    es;
  Db.set db es.(1) "mgr" (Value.Obj es.(4));
  Db.subscribe db ~reactive:es.(2) ~consumer:es.(4);
  Db.subscribe_class db ~cls:"manager" ~consumer:es.(9);
  Db.delete_object db es.(7);
  Transaction.begin_ db;
  Db.delete_object db es.(3);
  Db.set db es.(5) "salary" (Value.Float 1.5);
  Transaction.abort db;
  ignore (Db.tick db);
  db

(* The OIDs of a delta's object records and of its [del] lines. *)
let delta_oids text =
  List.fold_left
    (fun (objs, dels) line ->
      match String.split_on_char ' ' line with
      | [ "obj"; oid; _ ] -> (int_of_string oid :: objs, dels)
      | [ "del"; oid ] -> (objs, int_of_string oid :: dels)
      | _ -> (objs, dels))
    ([], []) (String.split_on_char '\n' text)
  |> fun (objs, dels) -> (List.rev objs, List.rev dels)

(* Once a snapshot is the base, the dirty set is live: touching 10% of the
   objects (sets, a create and deletes, some inside an aborted transaction
   that must leave no trace) gives a delta with exactly those objects and
   the deleted OIDs. *)
let test_delta_after_save () =
  let db = employee_db () in
  let es = Array.init 1_000 (fun i -> new_employee db ~name:(string_of_int i)) in
  let fs = Mem.create () in
  Persist.save ~storage:(Mem.storage fs) db "snap";
  let touched = List.init 90 (fun i -> es.(11 * i)) in
  List.iter (fun e -> Db.set db e "age" (Value.Int 50)) touched;
  let fresh = new_employee db ~name:"fresh" in
  let deleted = [ es.(3); es.(500); es.(11) ] in
  List.iter (Db.delete_object db) deleted;
  Transaction.begin_ db;
  Db.set db es.(7) "age" (Value.Int 1);
  Db.delete_object db es.(8);
  Transaction.abort db;
  let objs, dels = delta_oids (delta_bytes db) in
  let ints l = List.sort compare (List.map Oid.to_int l) in
  let live = List.filter (fun e -> not (List.mem e deleted)) (fresh :: touched) in
  (* an aborted write still marks its object: its restored record is
     written again, harmless under the delta's replace semantics *)
  Alcotest.(check (list int)) "objects" (ints (es.(7) :: es.(8) :: live)) objs;
  Alcotest.(check (list int)) "deletes" (ints deleted) dels;
  Alcotest.(check (pair (list int) (list int))) "the next delta is empty" ([], [])
    (delta_oids (delta_bytes db))

(* test/fixtures/nobase.delta holds the bytes this store's delta had when
   every object was tracked in the dirty set from its creation on. *)
let test_nobase_delta_fixture () =
  let expected = In_channel.with_open_bin (fixture "nobase.delta") In_channel.input_all in
  Alcotest.(check string) "delta bytes" expected (delta_bytes (nobase_store ()))

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
    test "OID tables spread shard strides" test_oid_table_spread;
    test "no-base delta matches its fixture" test_nobase_delta_fixture;
    test "delta after a save holds what was touched" test_delta_after_save;
  ]

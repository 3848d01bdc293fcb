open Helpers
module Coupling = Sentinel.Coupling
module Rule = Sentinel.Rule
module Scheduler = Sentinel.Scheduler

(* A system over the payroll schema with a counting action registered. *)
let fixture () =
  let db = employee_db () in
  let sys = System.create db in
  let fired = ref [] in
  System.register_action sys "trace" (fun _db inst ->
      fired := inst :: !fired);
  (db, sys, fun () -> List.length !fired)

let set_salary db e v = ignore (Db.send db e "set_salary" [ Value.Float v ])

let watch_rule ?name ?coupling ?priority ?monitor ?monitor_classes sys =
  System.create_rule sys ?name ?coupling ?priority ?monitor ?monitor_classes
    ~event:(Expr.eom ~cls:"employee" "set_salary")
    ~condition:"true" ~action:"trace" ()

(* --- lifecycle ------------------------------------------------------------ *)

let test_rule_is_first_class_object () =
  let db, sys, _ = fixture () in
  let r = watch_rule sys ~name:"watcher" in
  Alcotest.(check bool) "stored object" true (Db.exists db r);
  Alcotest.(check string) "of rule class" "__rule" (Db.class_of db r);
  Alcotest.check value "name attr" (Value.Str "watcher") (Db.get db r "name");
  Alcotest.(check bool) "notifiable by inheritance" true
    (Db.is_instance_of db r "__notifiable");
  Alcotest.(check (list oid)) "listed" [ r ] (System.rules sys);
  Alcotest.(check (option oid)) "findable" (Some r) (System.find_rule sys "watcher");
  (* event expression is stored, decodable *)
  let stored = Events.Codec.decode (Value.to_str (Db.get db r "event")) in
  Alcotest.(check bool) "event attr decodes" true
    (Expr.equal stored (Expr.eom ~cls:"employee" "set_salary"))

let test_unknown_condition_action_rejected () =
  let _db, sys, _ = fixture () in
  check_raises_any "unknown condition" (fun () ->
      ignore
        (System.create_rule sys ~event:(Expr.eom "m") ~condition:"nope"
           ~action:"trace" ()));
  check_raises_any "unknown action" (fun () ->
      ignore
        (System.create_rule sys ~event:(Expr.eom "m") ~condition:"true"
           ~action:"nope" ()));
  Alcotest.(check int) "no half-created rules" 0 (List.length (System.rules sys))

let test_instance_level_rule () =
  let db, sys, fired = fixture () in
  let e1 = new_employee db and e2 = new_employee db in
  ignore (watch_rule sys ~monitor:[ e1 ]);
  set_salary db e1 10.;
  set_salary db e2 20.;
  Alcotest.(check int) "only monitored instance triggers" 1 (fired ())

let test_class_level_rule () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let m = new_employee db ~cls:"manager" in
  ignore (watch_rule sys ~monitor_classes:[ "employee" ]);
  set_salary db e 1.;
  set_salary db m 2.; (* subclass instances are covered *)
  (* objects created after the rule are covered too *)
  set_salary db (new_employee db) 3.;
  Alcotest.(check int) "all instances" 3 (fired ())

let test_enable_disable () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let r = watch_rule sys ~monitor:[ e ] in
  set_salary db e 1.;
  System.disable sys r;
  Alcotest.check value "enabled attr synced" (Value.Bool false)
    (Db.get db r "enabled");
  set_salary db e 2.;
  System.enable sys r;
  set_salary db e 3.;
  Alcotest.(check int) "disabled period silent" 2 (fired ())

let test_delete_rule () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let r = watch_rule sys ~monitor:[ e ] in
  System.delete_rule sys r;
  Alcotest.(check bool) "object gone" false (Db.exists db r);
  Alcotest.(check int) "no runtimes" 0 (List.length (System.rules sys));
  (* the subscription on e went with the rule *)
  set_salary db e 1.;
  Alcotest.(check int) "stale subscription harmless" 0 (fired ())

let check_integrity db =
  match Oodb.Verify.check db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "integrity: %s" (String.concat "; " ps)

(* Deleting a rule takes it off every instance and class consumer list it
   was on: create/delete rounds leave both lists as they were. *)
let test_delete_unsubscribes () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let keeper = watch_rule sys ~monitor:[ e ] ~monitor_classes:[ "manager" ] in
  let cls0 = Db.class_consumers_of db "employee"
  and mgr0 = Db.class_consumers_of db "manager"
  and e0 = Db.consumers_of db e in
  for _ = 1 to 100 do
    let c = watch_rule sys ~monitor_classes:[ "employee"; "manager" ] in
    let i = watch_rule sys ~monitor:[ e ] in
    System.delete_rule sys c;
    System.delete_rule sys i
  done;
  Alcotest.(check (list oid)) "class list unchanged" cls0
    (Db.class_consumers_of db "employee");
  Alcotest.(check (list oid)) "subclass list unchanged" mgr0
    (Db.class_consumers_of db "manager");
  Alcotest.(check (list oid)) "instance list unchanged" e0 (Db.consumers_of db e);
  Alcotest.(check (list oid)) "only the keeper left" [ keeper ] (System.rules sys);
  check_integrity db;
  set_salary db e 1.;
  Alcotest.(check int) "only the keeper fires" 1 (fired ())

(* A delete rolled back with its transaction brings back the object, its
   subscriptions and its runtime. *)
let test_rolled_back_delete_restores () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let c = watch_rule sys ~monitor_classes:[ "employee" ] in
  let i = watch_rule sys ~monitor:[ e ] in
  Transaction.begin_ db;
  System.delete_rule sys c;
  System.delete_rule sys i;
  Alcotest.(check (list oid)) "off the class list" [] (Db.class_consumers_of db "employee");
  Alcotest.(check (list oid)) "off the instance list" [] (Db.consumers_of db e);
  Transaction.abort db;
  Alcotest.(check bool) "objects back" true (Db.exists db c && Db.exists db i);
  Alcotest.(check (list oid)) "class subscription back" [ c ]
    (Db.class_consumers_of db "employee");
  Alcotest.(check (list oid)) "instance subscription back" [ i ] (Db.consumers_of db e);
  Alcotest.(check (list oid)) "runtimes back" (List.sort Oid.compare [ c; i ])
    (System.rules sys);
  check_integrity db;
  set_salary db e 1.;
  Alcotest.(check int) "both fire again" 2 (fired ());
  System.delete_rule sys c;
  System.delete_rule sys i;
  Alcotest.(check (list oid)) "and a committed delete still unsubscribes" []
    (Db.consumers_of db e);
  check_integrity db

(* Every unsubscription a delete makes is journaled: replaying the WAL
   reaches the live state, including deletes inside committed and aborted
   transactions. *)
let test_delete_replays () =
  let path = Filename.temp_file "sentinel_delete_rule" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let db, sys, _ = fixture () in
      ignore (System.attach_wal sys path);
      let es = Array.init 3 (fun _ -> new_employee db) in
      let live = Queue.create () in
      let create k =
        Queue.push
          (if k mod 2 = 0 then watch_rule sys ~monitor_classes:[ "employee" ]
           else watch_rule sys ~monitor:[ es.(k mod 3); es.((k + 1) mod 3) ])
          live
      in
      for k = 0 to 5 do
        create k
      done;
      for k = 6 to 30 do
        (match k mod 3 with
        | 0 -> System.delete_rule sys (Queue.pop live)
        | 1 ->
          ignore
            (Transaction.atomically db (fun () ->
                 System.delete_rule sys (Queue.pop live)))
        | _ ->
          (* rolled back: the rule stays, at the back of the queue *)
          let r = Queue.pop live in
          Transaction.begin_ db;
          System.delete_rule sys r;
          Transaction.abort db;
          Queue.push r live);
        create k;
        set_salary db es.(k mod 3) (float_of_int k)
      done;
      System.detach_wal sys;
      let db2 = employee_db () in
      ignore (System.create db2);
      ignore (Oodb.Wal.replay db2 path);
      let state db = String.split_on_char '\n' (Oodb.Persist.to_string db) in
      Alcotest.(check (list string)) "replayed state = live state" (state db)
        (state db2);
      check_integrity db;
      check_integrity db2;
      (* a snapshot load rebuilds the reverse subscription index too *)
      let db3 = employee_db () in
      ignore (System.create db3);
      Oodb.Persist.of_string db3 (Oodb.Persist.to_string db);
      check_integrity db3)

let test_subscribe_api () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let r = watch_rule sys in
  set_salary db e 1.;
  Alcotest.(check int) "not subscribed yet" 0 (fired ());
  System.subscribe sys ~rule:r ~to_:e;
  set_salary db e 2.;
  System.unsubscribe sys ~rule:r ~from:e;
  set_salary db e 3.;
  System.subscribe_class sys ~rule:r ~cls:"employee";
  set_salary db e 4.;
  System.unsubscribe_class sys ~rule:r ~cls:"employee";
  set_salary db e 5.;
  Alcotest.(check int) "two subscribed periods" 2 (fired ())

(* --- conditions see event parameters ---------------------------------------- *)

let test_condition_sees_parameters () =
  let db = employee_db () in
  let sys = System.create db in
  let seen = ref [] in
  System.register_condition sys "param>100" (fun _db inst ->
      match inst.Events.Detector.constituents with
      | [ occ ] -> Value.to_float (List.hd occ.params) > 100.
      | _ -> false);
  System.register_action sys "record-param" (fun _db inst ->
      match inst.Events.Detector.constituents with
      | [ occ ] -> seen := List.hd occ.params :: !seen
      | _ -> ());
  let e = new_employee db in
  ignore
    (System.create_rule sys ~monitor:[ e ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"param>100" ~action:"record-param" ());
  set_salary db e 50.;
  set_salary db e 150.;
  Alcotest.(check (list value)) "only the matching parameter" [ Value.Float 150. ]
    !seen

(* --- coupling modes ----------------------------------------------------------- *)

let test_immediate_runs_inline () =
  let db = employee_db () in
  let sys = System.create db in
  let during = ref None in
  System.register_action sys "probe" (fun db _ ->
      during := Some (Transaction.depth db));
  let e = new_employee db in
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Immediate
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"probe" ());
  Transaction.begin_ db;
  set_salary db e 1.;
  Alcotest.(check (option int)) "ran inside txn" (Some 1) !during;
  Transaction.abort db

let test_deferred_runs_at_commit () =
  let db = employee_db () in
  let sys = System.create db in
  let ran = ref false in
  System.register_action sys "mark" (fun _ _ -> ran := true);
  let e = new_employee db in
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Deferred
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"mark" ());
  Transaction.begin_ db;
  set_salary db e 1.;
  Alcotest.(check bool) "not yet" false !ran;
  Transaction.commit db;
  Alcotest.(check bool) "at commit" true !ran

let test_deferred_condition_sees_final_state () =
  let db = employee_db () in
  let sys = System.create db in
  let observed = ref None in
  let e = new_employee db in
  System.register_action sys "observe" (fun db _ ->
      observed := Some (Db.get db e "salary"));
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Deferred
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"observe" ());
  Transaction.begin_ db;
  set_salary db e 1.;
  set_salary db e 99.; (* queued twice; both run at commit seeing 99 *)
  Transaction.commit db;
  Alcotest.(check (option value)) "final state" (Some (Value.Float 99.)) !observed

let test_deferred_dies_with_abort () =
  let db = employee_db () in
  let sys = System.create db in
  let ran = ref 0 in
  System.register_action sys "mark" (fun _ _ -> incr ran);
  let e = new_employee db in
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Deferred
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"mark" ());
  Transaction.begin_ db;
  set_salary db e 1.;
  Transaction.abort db;
  (* a later transaction must not replay the dead firing *)
  Transaction.begin_ db;
  Transaction.commit db;
  Alcotest.(check int) "never ran" 0 !ran;
  (* outside any transaction, deferred degenerates to immediate *)
  set_salary db e 2.;
  Alcotest.(check int) "autocommit runs immediately" 1 !ran

let test_rule_abort_rolls_back () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db ~salary:10. in
  ignore
    (System.create_rule sys ~monitor:[ e ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"abort" ());
  (match
     Transaction.atomically db (fun () -> set_salary db e 999.)
   with
  | Ok () -> Alcotest.fail "expected abort"
  | Error (Errors.Rule_abort _) -> ()
  | Error e -> raise e);
  Alcotest.check value "rolled back" (Value.Float 10.) (Db.get db e "salary")

let test_detached_runs_after_commit_in_own_txn () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db ~salary:0. in
  System.register_action sys "bump-after" (fun db _ ->
      (* runs in its own transaction, after the trigger committed *)
      Alcotest.(check int) "own txn" 1 (Transaction.depth db);
      let v = Value.to_float (Db.get db e "salary") in
      Db.set db e "salary" (Value.Float (v +. 1.)));
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Detached
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"bump-after" ());
  Transaction.begin_ db;
  set_salary db e 10.;
  Alcotest.check value "not yet" (Value.Float 10.) (Db.get db e "salary");
  Transaction.commit db;
  Alcotest.check value "ran after commit" (Value.Float 11.) (Db.get db e "salary")

let test_detached_failure_is_isolated () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db ~salary:0. in
  System.register_action sys "explode" (fun _ _ -> failwith "boom");
  ignore
    (System.create_rule sys ~name:"bomb" ~monitor:[ e ] ~coupling:Coupling.Detached
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"explode" ());
  (match Transaction.atomically db (fun () -> set_salary db e 5.) with
  | Ok () -> ()
  | Error e -> raise e);
  Alcotest.check value "trigger committed" (Value.Float 5.) (Db.get db e "salary");
  match System.detached_failures sys with
  | [ (name, Failure _) ] -> Alcotest.(check string) "recorded" "bomb" name
  | _ -> Alcotest.fail "failure not recorded"

let test_detached_dies_with_abort () =
  let db = employee_db () in
  let sys = System.create db in
  let ran = ref false in
  System.register_action sys "mark" (fun _ _ -> ran := true);
  let e = new_employee db in
  ignore
    (System.create_rule sys ~monitor:[ e ] ~coupling:Coupling.Detached
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"mark" ());
  Transaction.begin_ db;
  set_salary db e 1.;
  Transaction.abort db;
  Alcotest.(check bool) "discarded" false !ran

(* --- priorities and strategies -------------------------------------------------- *)

let ordering_fixture strategy =
  let db = employee_db () in
  let sys = System.create ~strategy db in
  let order = ref [] in
  List.iter
    (fun tag ->
      System.register_action sys tag (fun _ _ -> order := tag :: !order))
    [ "low"; "mid"; "high" ];
  let e = new_employee db in
  let rule tag priority =
    ignore
      (System.create_rule sys ~name:tag ~priority ~coupling:Coupling.Deferred
         ~monitor:[ e ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:tag ())
  in
  rule "low" 1;
  rule "mid" 5;
  rule "high" 9;
  Transaction.begin_ db;
  set_salary db e 1.;
  Transaction.commit db;
  List.rev !order

let test_priority_ordering () =
  Alcotest.(check (list string))
    "priority-fifo" [ "high"; "mid"; "low" ]
    (ordering_fixture Scheduler.Priority_fifo);
  Alcotest.(check (list string))
    "fifo keeps detection order" [ "low"; "mid"; "high" ]
    (ordering_fixture Scheduler.Fifo);
  Alcotest.(check (list string))
    "lifo reverses" [ "high"; "mid"; "low" ]
    (ordering_fixture Scheduler.Lifo)

let test_scheduler_order_function () =
  let entries = [ (1, 1, "a"); (9, 2, "b"); (9, 3, "c"); (5, 4, "d") ] in
  Alcotest.(check (list string)) "priority-fifo" [ "b"; "c"; "d"; "a" ]
    (Scheduler.order Scheduler.Priority_fifo entries);
  Alcotest.(check (list string)) "priority-lifo" [ "c"; "b"; "d"; "a" ]
    (Scheduler.order Scheduler.Priority_lifo entries);
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c"; "d" ]
    (Scheduler.order Scheduler.Fifo entries);
  Alcotest.(check (list string)) "lifo" [ "d"; "c"; "b"; "a" ]
    (Scheduler.order Scheduler.Lifo entries)

(* --- cascading -------------------------------------------------------------------- *)

let test_cascading_rules () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db ~salary:0. in
  (* the action sends another message, triggering a second rule *)
  System.register_action sys "bump-income" (fun db _ ->
      ignore (Db.send db e "change_income" [ Value.Float 7. ]));
  let counted = ref 0 in
  System.register_action sys "count-income" (fun _ _ -> incr counted);
  ignore
    (System.create_rule sys ~monitor:[ e ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"bump-income" ());
  ignore
    (System.create_rule sys ~monitor:[ e ]
       ~event:(Expr.eom ~cls:"employee" "change_income")
       ~condition:"true" ~action:"count-income" ());
  set_salary db e 1.;
  Alcotest.(check int) "cascade reached second rule" 1 !counted

let test_cascade_limit () =
  let db = employee_db () in
  let sys = System.create ~cascade_limit:8 db in
  let e = new_employee db in
  (* self-triggering rule: set_salary action sends set_salary *)
  System.register_action sys "recurse" (fun db _ ->
      ignore (Db.send db e "set_salary" [ Value.Float 1. ]));
  ignore
    (System.create_rule sys ~monitor:[ e ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"recurse" ());
  match set_salary db e 0. with
  | () -> Alcotest.fail "expected cascade abort"
  | exception Errors.Rule_abort msg ->
    Alcotest.(check bool) "mentions cascade" true
      (contains_substring ~sub:"cascade" msg)

(* --- rules on rules ------------------------------------------------------------------ *)

let test_rules_on_rules () =
  let db, sys, fired = fixture () in
  let e = new_employee db in
  let worker = watch_rule sys ~name:"worker" ~monitor:[ e ] in
  (* a meta-rule that watches the worker rule's own disable events *)
  let disables = ref 0 in
  System.register_action sys "count-disable" (fun _ _ -> incr disables);
  ignore
    (System.create_rule sys ~name:"meta" ~monitor:[ worker ]
       ~event:(Expr.eom ~cls:"__rule" "disable")
       ~condition:"true" ~action:"count-disable" ());
  System.disable sys worker;
  System.enable sys worker;
  System.disable sys worker;
  Alcotest.(check int) "meta-rule saw both disables" 2 !disables;
  ignore (fired ())

(* --- statistics ------------------------------------------------------------------------ *)

let test_stats_and_counters () =
  let db, sys, _ = fixture () in
  let e = new_employee db in
  let r = watch_rule sys ~monitor:[ e ] in
  set_salary db e 1.;
  set_salary db e 2.;
  let info = System.rule_info sys r in
  Alcotest.(check int) "triggered" 2 info.Rule.triggered;
  Alcotest.(check int) "fired" 2 info.Rule.fired;
  Alcotest.check value "persistent fired counter" (Value.Int 2)
    (Db.get db r "fired");
  let s = System.stats sys in
  Alcotest.(check int) "conditions" 2 s.conditions_checked;
  Alcotest.(check int) "actions" 2 s.actions_executed;
  Alcotest.(check bool) "dispatched" true (s.dispatched >= 2);
  (* recorder holds the delivered occurrences *)
  Alcotest.(check int) "recorder" 2
    (List.length (Sentinel.Notifiable.all info.Rule.recorder));
  System.reset_stats sys;
  Alcotest.(check int) "reset" 0 (System.stats sys).dispatched

let suite =
  [
    test "rule is a first-class object" test_rule_is_first_class_object;
    test "unknown condition/action rejected" test_unknown_condition_action_rejected;
    test "instance-level rule" test_instance_level_rule;
    test "class-level rule" test_class_level_rule;
    test "enable/disable" test_enable_disable;
    test "delete rule" test_delete_rule;
    test "delete rule unsubscribes it" test_delete_unsubscribes;
    test "rolled-back delete restores subscriptions" test_rolled_back_delete_restores;
    test "rule deletes replay from the WAL" test_delete_replays;
    test "subscribe API" test_subscribe_api;
    test "condition sees event parameters" test_condition_sees_parameters;
    test "immediate runs inline" test_immediate_runs_inline;
    test "deferred runs at commit" test_deferred_runs_at_commit;
    test "deferred sees final state" test_deferred_condition_sees_final_state;
    test "deferred dies with abort" test_deferred_dies_with_abort;
    test "rule abort rolls back" test_rule_abort_rolls_back;
    test "detached runs after commit" test_detached_runs_after_commit_in_own_txn;
    test "detached failure isolated" test_detached_failure_is_isolated;
    test "detached dies with abort" test_detached_dies_with_abort;
    test "priority ordering" test_priority_ordering;
    test "scheduler order function" test_scheduler_order_function;
    test "cascading rules" test_cascading_rules;
    test "cascade limit" test_cascade_limit;
    test "rules on rules" test_rules_on_rules;
    test "statistics and counters" test_stats_and_counters;
  ]

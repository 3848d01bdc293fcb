(* Cross-feature interaction tests: the places where two subsystems meet
   and could disagree. *)

open Helpers
module Template = Sentinel.Template
module Evolution = Oodb.Evolution

let test_template_with_filters () =
  let db = Db.create () in
  let sys = System.create db in
  Workloads.Banking.install db;
  let accounts = Workloads.Banking.populate db (Workloads.Prng.create 1) ~accounts:2 in
  let fired = ref 0 in
  System.register_action sys "count" (fun _ _ -> incr fired);
  (* a filtered template: bind narrows instances, the mask narrows amounts *)
  let tpl =
    Template.declare sys ~name:"large-withdrawals"
      ~event:(Events.Parser.parse "begin account::withdraw where $0 >= 100")
      ~condition:"true" ~action:"count" ()
  in
  ignore (Template.bind sys tpl [ accounts.(0) ]);
  ignore (Db.send db accounts.(0) "withdraw" [ Value.Float 50. ]); (* mask *)
  ignore (Db.send db accounts.(0) "withdraw" [ Value.Float 500. ]); (* fires *)
  ignore (Db.send db accounts.(1) "withdraw" [ Value.Float 500. ]); (* unbound *)
  Alcotest.(check int) "mask and binding compose" 1 !fired

let test_evolved_class_with_rules () =
  (* evolve a passive class, then monitor it with a DSL-loaded rule *)
  let db = Db.create () in
  let sys = System.create db in
  Db.define_class db
    (Schema.define "sensor"
       ~attrs:[ ("value", Value.Float 0.) ]
       ~methods:[ ("update", Workloads.Dsl.setter "value") ]);
  let s1 = Db.new_object db "sensor" in
  Evolution.add_event_generator db ~cls:"sensor" ~meth:"update" Schema.On_end;
  let fired = ref 0 in
  System.register_action sys "count" (fun _ _ -> incr fired);
  ignore
    (Sentinel.Rule_dsl.load_string sys
       {|rule sensor-watch
         on end sensor::update where $0 > 10
         then count
         monitor class sensor
         end|});
  ignore (Db.send db s1 "update" [ Value.Float 5. ]);
  ignore (Db.send db s1 "update" [ Value.Float 15. ]);
  Alcotest.(check int) "evolved + DSL + filter" 1 !fired

let test_wal_replays_rule_objects () =
  (* a rule created while a WAL is attached is reconstructed by replay *)
  let wal_path = Filename.temp_file "sentinel_ix" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists wal_path then Sys.remove wal_path)
    (fun () ->
      let db = employee_db () in
      let sys = System.create db in
      System.register_action sys "count" (fun _ _ -> ());
      let wal = Oodb.Wal.attach db wal_path in
      let e = new_employee db in
      let rule =
        System.create_rule sys ~name:"walled" ~monitor:[ e ]
          ~event:(Expr.eom ~cls:"employee" "set_salary")
          ~condition:"true" ~action:"count" ()
      in
      Oodb.Wal.detach wal;
      (* recover into a fresh store and rehydrate the rule layer *)
      let db2 = Db.create () in
      Workloads.Payroll.install db2;
      let sys2 = System.create db2 in
      let fired = ref 0 in
      System.register_action sys2 "count" (fun _ _ -> incr fired);
      ignore (Oodb.Wal.replay db2 wal_path);
      System.rehydrate sys2;
      Alcotest.(check (list oid)) "rule recovered from log" [ rule ]
        (System.rules sys2);
      ignore (Db.send db2 e "set_salary" [ Value.Float 1. ]);
      Alcotest.(check int) "fires after replay" 1 !fired)

let test_gc_respects_rule_references () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "count" (fun _ _ -> ());
  let e = new_employee db in
  (* an instance-level rule: e holds the rule in its consumers list, so
     rooting e keeps the rule; rooting nothing collects both *)
  let rule =
    System.create_rule sys ~monitor:[ e ]
      ~event:(Expr.eom ~cls:"employee" "set_salary")
      ~condition:"true" ~action:"count" ()
  in
  Alcotest.(check bool) "rule live via subscription" true
    (Oodb.Oid.Set.mem rule (Oodb.Gc.reachable db ~roots:[ e ]));
  let collected = Oodb.Gc.collect db ~roots:[ e ] in
  Alcotest.(check int) "nothing to collect" 0 collected;
  Alcotest.(check bool) "rule survived" true (Db.exists db rule)

let test_expire_then_verify () =
  (* expiry and integrity checks interact safely with live detectors *)
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "count" (fun _ _ -> ());
  let e = new_employee db in
  ignore
    (System.create_rule sys ~context:Events.Context.Chronicle ~monitor:[ e ]
       ~event:
         (Expr.conj
            (Expr.eom ~cls:"employee" "set_salary")
            (Expr.eom ~cls:"employee" "change_income"))
       ~condition:"true" ~action:"count" ());
  for i = 1 to 100 do
    ignore (Db.send db e "set_salary" [ Value.Float (float_of_int i) ])
  done;
  System.expire_partial_state sys ~max_age:10;
  Alcotest.(check bool) "db still sound" true
    (Oodb.Verify.check ~quiescent:true db = Ok ())

(* Property: random rule sets (mixed couplings, priorities, contexts,
   operators) over random transactional workloads leave the whole system
   consistent: accounting identities hold and the store verifies. *)
let prop_system_consistency =
  let open QCheck2.Gen in
  let rule_gen =
    let* coupling =
      oneofl Sentinel.Coupling.[ Immediate; Deferred; Detached ]
    in
    let* context = oneofl Events.Context.all in
    let* priority = int_bound 9 in
    let* shape = oneofl [ `Prim; `Disj; `Seq ] in
    return (coupling, context, priority, shape)
  in
  let spec = pair (list_size (int_range 1 5) rule_gen) (int_range 5 60) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random rule systems stay consistent" ~count:60 spec
       (fun (rule_specs, n_ops) ->
         let db = employee_db () in
         let sys = System.create db in
         System.register_action sys "noop" (fun _ _ -> ());
         let rules =
           List.mapi
             (fun i (coupling, context, priority, shape) ->
               let event =
                 let sal = Expr.eom ~cls:"employee" "set_salary" in
                 let inc = Expr.eom ~cls:"employee" "change_income" in
                 match shape with
                 | `Prim -> sal
                 | `Disj -> Expr.disj sal inc
                 | `Seq -> Expr.seq sal inc
               in
               System.create_rule sys
                 ~name:(Printf.sprintf "r%d" i)
                 ~coupling ~context ~priority ~monitor_classes:[ "employee" ]
                 ~event ~condition:"true" ~action:"noop" ())
             rule_specs
         in
         let rng = Workloads.Prng.create (n_ops * 31) in
         let pop =
           Workloads.Payroll.populate db rng ~managers:2 ~employees:5
         in
         for _ = 1 to n_ops do
           let target, _ =
             let all = Array.append pop.managers pop.employees in
             (Workloads.Prng.choice rng all, ())
           in
           let meth =
             if Workloads.Prng.bool rng 0.5 then "set_salary" else "change_income"
           in
           match
             Transaction.atomically db (fun () ->
                 ignore (Db.send db target meth [ Value.Float 1. ]))
           with
           | Ok () -> ()
           | Error e -> raise e
         done;
         let stats = System.stats sys in
         let total_fired =
           List.fold_left
             (fun acc r -> acc + (System.rule_info sys r).Sentinel.Rule.fired)
             0 rules
         in
         stats.conditions_checked >= stats.actions_executed
         && total_fired = stats.actions_executed
         && (not (Transaction.in_progress db))
         && Oodb.Verify.check ~quiescent:true db = Ok ()))

let suite =
  [
    test "template with filters" test_template_with_filters;
    test "evolved class with DSL rules" test_evolved_class_with_rules;
    test "wal replays rule objects" test_wal_replays_rule_objects;
    test "gc respects rule references" test_gc_respects_rule_references;
    test "expire then verify" test_expire_then_verify;
    prop_system_consistency;
  ]

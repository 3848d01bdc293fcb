(* The full benchmark harness: one experiment per entry of DESIGN.md §4.
   Each experiment prints the rows EXPERIMENTS.md records; shapes (who wins,
   how things scale) are the reproduction target, not absolute numbers.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- e2 e6   (a subset) *)

module Db = Oodb.Db
module Value = Oodb.Value
module Oid = Oodb.Oid
module Schema = Oodb.Schema
module Transaction = Oodb.Transaction
module Expr = Events.Expr
module Detector = Events.Detector
module Context = Events.Context
module System = Sentinel.System
module Error_policy = Sentinel.Error_policy
module Prng = Workloads.Prng
open Bench_util

(* ------------------------------------------------------------------------- *)
(* E1: reactivity overhead (paper §3.2: "No overhead is incurred in the
   definition and use of [passive] objects")                                  *)
(* ------------------------------------------------------------------------- *)

let e1 () =
  header "E1: method dispatch overhead by object category (§3.2)";
  let mk_db ~reactive ~in_interface =
    let db = Db.create () in
    let events = if in_interface then [ ("poke", Schema.On_end) ] else [] in
    Db.define_class db
      (Schema.define "thing" ~reactive
         ~attrs:[ ("x", Value.Int 0) ]
         ~methods:[ ("poke", fun _ _ _ -> Value.Null) ]
         ~events);
    (db, Db.new_object db "thing")
  in
  let bench name (db, o) =
    row "  %-42s %10s\n" name
      (fmt_ns (ns_per_run name (fun () -> ignore (Db.send db o "poke" []))))
  in
  bench "passive object" (mk_db ~reactive:false ~in_interface:false);
  bench "reactive, method not in event interface"
    (mk_db ~reactive:true ~in_interface:false);
  bench "reactive, event generated, no consumers"
    (mk_db ~reactive:true ~in_interface:true);
  let subscribed enabled =
    let db, o = mk_db ~reactive:true ~in_interface:true in
    let sys = System.create db in
    System.register_action sys "noop" (fun _ _ -> ());
    let r =
      System.create_rule sys ~monitor:[ o ] ~event:(Expr.eom ~cls:"thing" "poke")
        ~condition:"true" ~action:"noop" ()
    in
    if not enabled then System.disable sys r;
    (db, o)
  in
  bench "reactive, one subscribed rule (disabled)" (subscribed false);
  bench "reactive, one subscribed rule (firing)" (subscribed true)

(* ------------------------------------------------------------------------- *)
(* E2: subscription vs centralized rule checking (§3.5 advantage 1)           *)
(* ------------------------------------------------------------------------- *)

let e2 () =
  header "E2: subscription (Sentinel) vs centralized scan (ADAM), 10k events";
  row "  %6s  %12s  %12s  %14s  %14s\n" "#rules" "sentinel" "adam"
    "adam scans" "deliveries";
  let n_objects = 1000 and n_updates = 10_000 in
  let updates rng objs =
    List.init n_updates (fun _ ->
        (Prng.choice rng objs, "set_salary", [ Value.Float 1. ]))
  in
  let run_sentinel n_rules =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create db in
    System.register_action sys "noop" (fun _ _ -> ());
    let rng = Prng.create 1 in
    let objs =
      Array.init n_objects (fun i ->
          Db.new_object db "employee"
            ~attrs:[ ("name", Value.Str (string_of_int i)) ])
    in
    (* each rule monitors one distinct object *)
    for i = 0 to n_rules - 1 do
      ignore
        (System.create_rule sys
           ~monitor:[ objs.(i mod n_objects) ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true" ~action:"noop" ())
    done;
    let ops = updates rng objs in
    Db.reset_stats db;
    let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
    (ms, (Db.stats db).notifications)
  in
  let run_adam n_rules =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let adam = Baselines.Adam.create db in
    let rng = Prng.create 1 in
    let objs =
      Array.init n_objects (fun i ->
          Db.new_object db "employee"
            ~attrs:[ ("name", Value.Str (string_of_int i)) ])
    in
    for i = 0 to n_rules - 1 do
      let target = objs.(i mod n_objects) in
      ignore
        (Baselines.Adam.add_rule adam
           ~name:(string_of_int i)
           ~active_class:"employee" ~meth:"set_salary"
           ~condition:(fun _ occ -> Oid.equal occ.Oodb.Types.source target)
           ~action:(fun _ _ -> ())
           ())
    done;
    let ops = updates rng objs in
    let before = Baselines.Adam.scans adam in
    let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
    (ms, Baselines.Adam.scans adam - before)
  in
  List.iter
    (fun n ->
      let s_ms, deliveries = run_sentinel n in
      let a_ms, scans = run_adam n in
      row "  %6d  %12s  %12s  %14d  %14d\n" n (fmt_ms s_ms) (fmt_ms a_ms) scans
        deliveries)
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------------- *)
(* E3: rule sharing across classes (§3.5 advantage 2)                          *)
(* ------------------------------------------------------------------------- *)

let e3 () =
  header "E3: one shared rule over k classes vs k per-class Ode constraints";
  row "  %4s  %14s  %14s  %12s  %12s\n" "k" "defs(sentinel)" "defs(ode)"
    "sentinel" "ode";
  let instances_per_class = 50 and updates_per_class = 2_000 in
  let define_classes db k =
    List.init k (fun i ->
        let cls = Printf.sprintf "cls%d" i in
        Db.define_class db
          (Schema.define cls
             ~attrs:[ ("v", Value.Float 0.) ]
             ~methods:[ ("set_v", Workloads.Dsl.setter "v") ]
             ~events:[ ("set_v", Schema.On_end) ]);
        cls)
  in
  let populate db classes =
    List.concat_map
      (fun cls -> List.init instances_per_class (fun _ -> Db.new_object db cls))
      classes
  in
  let stream rng objs =
    List.init (updates_per_class * List.length objs / instances_per_class)
      (fun _ ->
        (Prng.choice rng (Array.of_list objs), "set_v", [ Value.Float 5. ]))
  in
  List.iter
    (fun k ->
      (* Sentinel: ONE rule object, subscribed to every class *)
      let db = Db.create () in
      let sys = System.create db in
      let classes = define_classes db k in
      let objs = populate db classes in
      System.register_condition sys "neg" (fun db inst ->
          match inst.Detector.constituents with
          | [ occ ] -> Value.to_float (Db.get db occ.source "v") < 0.
          | _ -> false);
      System.register_action sys "noop" (fun _ _ -> ());
      ignore
        (System.create_rule sys ~name:"shared" ~monitor_classes:classes
           ~event:(Expr.eom "set_v")
           ~condition:"neg" ~action:"noop" ());
      let ops = stream (Prng.create 2) objs in
      let (), s_ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
      (* Ode: k duplicated constraint definitions, one per class *)
      let db2 = Db.create () in
      let ode = Baselines.Ode.create db2 in
      let classes2 = define_classes db2 k in
      List.iter
        (fun cls ->
          Baselines.Ode.declare_constraint ode ~cls ~name:("nonneg-" ^ cls)
            (fun db o -> Value.to_float (Db.get db o "v") >= 0.))
        classes2;
      let objs2 = populate db2 classes2 in
      let ops2 = stream (Prng.create 2) objs2 in
      let (), o_ms =
        time_ms (fun () ->
            List.iter
              (fun (o, m, args) -> ignore (Baselines.Ode.send ode o m args))
              ops2)
      in
      row "  %4d  %14d  %14d  %12s  %12s\n" k 1 k (fmt_ms s_ms) (fmt_ms o_ms))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------------- *)
(* E4: composite-event detection cost vs expression depth (§1 issue 3)        *)
(* ------------------------------------------------------------------------- *)

let occ_stream n =
  List.init n (fun i ->
      Oodb.Occurrence.make
        ~source:(Oid.of_int (1 + (i mod 3)))
        ~source_class:"c"
        ~meth:(Printf.sprintf "m%d" (i mod 3))
        ~modifier:Oodb.Types.After ~params:[] ~at:(i + 1))

let e4 () =
  header "E4: detection cost vs expression depth (10k occurrences)";
  row "  %6s  %12s  %12s  %12s\n" "depth" "or-chain" "and-chain" "seq-chain";
  let prim i = Expr.eom (Printf.sprintf "m%d" (i mod 3)) in
  let chain op depth =
    let rec build i = if i = 0 then prim 0 else op (build (i - 1)) (prim i) in
    build depth
  in
  let stream = occ_stream 10_000 in
  let measure e =
    let d = Detector.create ~on_signal:(fun _ -> ()) e in
    let (), ms = time_ms (fun () -> List.iter (Detector.feed d) stream) in
    ms
  in
  List.iter
    (fun depth ->
      row "  %6d  %12s  %12s  %12s\n" depth
        (fmt_ms (measure (chain Expr.disj depth)))
        (fmt_ms (measure (chain Expr.conj depth)))
        (fmt_ms (measure (chain Expr.seq depth))))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------------- *)
(* E5: parameter contexts (§3.3)                                              *)
(* ------------------------------------------------------------------------- *)

let e5 () =
  header "E5: conjunction detection by parameter context (10k occurrences)";
  row "  %-12s  %12s  %12s\n" "context" "time" "signals";
  let stream = occ_stream 10_000 in
  let e = Expr.conj (Expr.eom "m0") (Expr.eom "m1") in
  List.iter
    (fun ctx ->
      let d = Detector.create ~context:ctx ~on_signal:(fun _ -> ()) e in
      let (), ms = time_ms (fun () -> List.iter (Detector.feed d) stream) in
      row "  %-12s  %12s  %12d\n" (Context.to_string ctx) (fmt_ms ms)
        (Detector.signalled d))
    Context.all

(* ------------------------------------------------------------------------- *)
(* E6: the Salary-check workload on all three engines (§5.1)                  *)
(* ------------------------------------------------------------------------- *)

let e6 () =
  header "E6: Salary-check end-to-end (500 employees, 50 managers, 5k updates)";
  row "  %-10s  %12s  %12s  %12s\n" "engine" "time" "rejected" "defs";
  let managers = 50 and employees = 500 and n_updates = 5_000 in
  let employee_ok db emp =
    match Db.get db emp "mgr" with
    | Value.Obj m ->
      Value.to_float (Db.get db emp "salary")
      < Value.to_float (Db.get db m "salary")
    | _ -> true
  in
  (* ~10% of updates try to push an employee above every manager *)
  let updates rng (pop : Workloads.Payroll.population) =
    List.init n_updates (fun _ ->
        let violate = Prng.bool rng 0.1 in
        let nm = Array.length pop.managers
        and ne = Array.length pop.employees in
        let k = Prng.int rng (nm + ne) in
        let target, is_mgr =
          if k < nm then (pop.managers.(k), true)
          else (pop.employees.(k - nm), false)
        in
        let salary =
          if violate && not is_mgr then 50_000.
          else if is_mgr then 5000. +. Prng.float rng 5000.
          else 1000. +. Prng.float rng 3000.
        in
        (target, salary))
  in
  let run_with send db pop =
    let ops = updates (Prng.create 4) pop in
    let rejected = ref 0 in
    let (), ms =
      time_ms (fun () ->
          List.iter
            (fun (target, salary) ->
              match
                Transaction.atomically db (fun () ->
                    ignore (send target "set_salary" [ Value.Float salary ]))
              with
              | Ok () -> ()
              | Error (Oodb.Errors.Rule_abort _) -> incr rejected
              | Error e -> raise e)
            ops)
    in
    (ms, !rejected)
  in
  (* Sentinel: one rule, class-level subscription *)
  (let db = Db.create () in
   Workloads.Payroll.install db;
   let sys = System.create db in
   System.register_condition sys "viol" (fun db inst ->
       match inst.Detector.constituents with
       | [ occ ] ->
         (not (Db.is_instance_of db occ.source "manager"))
         && not (employee_ok db occ.source)
       | _ -> false);
   ignore
     (System.create_rule sys ~name:"salary-check" ~monitor_classes:[ "employee" ]
        ~event:(Expr.eom ~cls:"employee" "set_salary")
        ~condition:"viol" ~action:"abort" ());
   let pop = Workloads.Payroll.populate db (Prng.create 3) ~managers ~employees in
   let ms, rejected = run_with (Db.send db) db pop in
   row "  %-10s  %12s  %12d  %12d\n" "sentinel" (fmt_ms ms) rejected 1);
  (* Ode: one constraint per class (employee side only is enough to catch
     the injected violations, but we declare both as Figure 11 does) *)
  (let db = Db.create () in
   Workloads.Payroll.install db;
   let ode = Baselines.Ode.create db in
   Baselines.Ode.declare_constraint ode ~cls:"employee" ~name:"lt-mgr"
     (fun db o ->
       Db.is_instance_of db o "manager" || employee_ok db o);
   Baselines.Ode.declare_constraint ode ~cls:"manager" ~name:"gt-emps"
     (fun _ _ -> true);
   let pop = Workloads.Payroll.populate db (Prng.create 3) ~managers ~employees in
   let ms, rejected = run_with (Baselines.Ode.send ode) db pop in
   row "  %-10s  %12s  %12d  %12d\n" "ode" (fmt_ms ms) rejected 2);
  (* ADAM: two rule objects, centralized dispatch *)
  let db = Db.create () in
  Workloads.Payroll.install db;
  let adam = Baselines.Adam.create db in
  ignore
    (Baselines.Adam.add_rule adam ~name:"emp-rule" ~active_class:"employee"
       ~meth:"set_salary"
       ~condition:(fun db occ ->
         (not (Db.is_instance_of db occ.Oodb.Types.source "manager"))
         && not (employee_ok db occ.Oodb.Types.source))
       ~action:(fun _ _ -> raise (Oodb.Errors.Rule_abort "Invalid Salary"))
       ());
  ignore
    (Baselines.Adam.add_rule adam ~name:"mgr-rule" ~active_class:"manager"
       ~meth:"set_salary"
       ~condition:(fun _ _ -> false)
       ~action:(fun _ _ -> ())
       ());
  let pop = Workloads.Payroll.populate db (Prng.create 3) ~managers ~employees in
  let ms, rejected = run_with (Db.send db) db pop in
  row "  %-10s  %12s  %12d  %12d\n" "adam" (fmt_ms ms) rejected 2

(* ------------------------------------------------------------------------- *)
(* E7: runtime rule churn vs schema rebuild (§1 issue 1, §3.4)                *)
(* ------------------------------------------------------------------------- *)

let e7 () =
  header "E7: adding/removing 100 rules against a live store of 10k objects";
  let n_objects = 10_000 and n_rules = 100 in
  let fresh () =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let objs =
      Array.init n_objects (fun i ->
          Db.new_object db "employee"
            ~attrs:[ ("name", Value.Str (string_of_int i)) ])
    in
    (db, objs)
  in
  (* Sentinel: create + delete rule objects online *)
  (let db, objs = fresh () in
   let sys = System.create db in
   System.register_action sys "noop" (fun _ _ -> ());
   let (), add_ms =
     time_ms (fun () ->
         for i = 0 to n_rules - 1 do
           ignore
             (System.create_rule sys
                ~name:(string_of_int i)
                ~monitor:[ objs.(i) ]
                ~event:(Expr.eom ~cls:"employee" "set_salary")
                ~condition:"true" ~action:"noop" ())
         done)
   in
   let rules = System.rules sys in
   let (), del_ms =
     time_ms (fun () -> List.iter (System.delete_rule sys) rules)
   in
   row "  %-22s  add %10s   remove %10s\n" "sentinel (online)" (fmt_ms add_ms)
     (fmt_ms del_ms));
  (* ADAM: also online *)
  (let db, _objs = fresh () in
   let adam = Baselines.Adam.create db in
   let added = ref [] in
   let (), add_ms =
     time_ms (fun () ->
         for i = 0 to n_rules - 1 do
           added :=
             Baselines.Adam.add_rule adam ~name:(string_of_int i)
               ~active_class:"employee" ~meth:"set_salary"
               ~condition:(fun _ _ -> false)
               ~action:(fun _ _ -> ())
               ()
             :: !added
         done)
   in
   let (), del_ms =
     time_ms (fun () -> List.iter (Baselines.Adam.remove_rule adam) !added)
   in
   row "  %-22s  add %10s   remove %10s\n" "adam (online)" (fmt_ms add_ms)
     (fmt_ms del_ms));
  (* Ode: each addition is a schema rebuild revisiting every instance *)
  let db, _objs = fresh () in
  let ode = Baselines.Ode.create db in
  let (), add_ms =
    time_ms (fun () ->
        for i = 0 to n_rules - 1 do
          ignore
            (Baselines.Ode.add_constraint_with_rebuild ode ~cls:"employee"
               ~name:(string_of_int i)
               (fun _ _ -> true))
        done)
  in
  row "  %-22s  add %10s   (each add revisits all %d instances)\n"
    "ode (rebuild)" (fmt_ms add_ms) n_objects

(* ------------------------------------------------------------------------- *)
(* E8: class-level vs instance-level rules (§4.7)                             *)
(* ------------------------------------------------------------------------- *)

let e8 () =
  header "E8: class-level vs instance-level rule, 10k updates over N objects";
  row "  %8s  %16s  %16s  %16s\n" "N" "class rule" "instance(10%)" "firings c/i";
  let n_updates = 10_000 in
  List.iter
    (fun n ->
      let build instance_fraction =
        let db = Db.create () in
        Workloads.Payroll.install db;
        let sys = System.create db in
        System.register_action sys "noop" (fun _ _ -> ());
        let objs =
          Array.init n (fun i ->
              Db.new_object db "employee"
                ~attrs:[ ("name", Value.Str (string_of_int i)) ])
        in
        (match instance_fraction with
        | None ->
          ignore
            (System.create_rule sys ~monitor_classes:[ "employee" ]
               ~event:(Expr.eom ~cls:"employee" "set_salary")
               ~condition:"true" ~action:"noop" ())
        | Some frac ->
          let k = max 1 (n / frac) in
          ignore
            (System.create_rule sys
               ~monitor:(Array.to_list (Array.sub objs 0 k))
               ~event:(Expr.eom ~cls:"employee" "set_salary")
               ~condition:"true" ~action:"noop" ()));
        let rng = Prng.create 5 in
        let ops =
          List.init n_updates (fun _ ->
              (Prng.choice rng objs, "set_salary", [ Value.Float 1. ]))
        in
        Db.reset_stats db;
        let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
        (ms, (System.stats sys).actions_executed)
      in
      let c_ms, c_fired = build None in
      let i_ms, i_fired = build (Some 10) in
      row "  %8d  %16s  %16s  %9d/%d\n" n (fmt_ms c_ms) (fmt_ms i_ms) c_fired
        i_fired)
    [ 100; 1000; 10_000 ]

(* ------------------------------------------------------------------------- *)
(* E9: persistence of rules and events as first-class objects (§3.4, §4)      *)
(* ------------------------------------------------------------------------- *)

let e9 () =
  header "E9: save / load / rehydrate a store with first-class rule objects";
  let n_objects = 10_000 and n_rules = 50 in
  let db = Db.create () in
  Workloads.Payroll.install db;
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let objs =
    Array.init n_objects (fun i ->
        Db.new_object db "employee"
          ~attrs:[ ("name", Value.Str (string_of_int i)); ("salary", Value.Float 1.) ])
  in
  for i = 0 to n_rules - 1 do
    ignore
      (System.create_rule sys
         ~name:(string_of_int i)
         ~monitor:[ objs.(i) ]
         ~event:
           (Expr.conj
              (Expr.eom ~cls:"employee" "set_salary")
              (Expr.eom ~cls:"employee" "change_income"))
         ~condition:"true" ~action:"noop" ())
  done;
  let text, save_ms = time_ms (fun () -> Oodb.Persist.to_string db) in
  let (db2, sys2), load_ms =
    time_ms (fun () ->
        let db2 = Db.create () in
        Workloads.Payroll.install db2;
        let sys2 = System.create db2 in
        System.register_action sys2 "noop" (fun _ _ -> ());
        Oodb.Persist.of_string db2 text;
        (db2, sys2))
  in
  let (), rehydrate_ms = time_ms (fun () -> System.rehydrate sys2) in
  (* prove the reloaded rules still detect composite events *)
  ignore (Db.send db2 objs.(0) "set_salary" [ Value.Float 2. ]);
  ignore (Db.send db2 objs.(0) "change_income" [ Value.Float 3. ]);
  let fired =
    (System.rule_info sys2 (Option.get (System.find_rule sys2 "0")))
      .Sentinel.Rule.fired
  in
  row "  store: %d objects + %d composite-event rules, %d KiB serialized\n"
    n_objects n_rules
    (String.length text / 1024);
  row "  save %-12s load %-12s rehydrate %-12s\n" (fmt_ms save_ms)
    (fmt_ms load_ms) (fmt_ms rehydrate_ms);
  row "  reloaded rule fires on conjunction: %s\n"
    (if fired = 1 then "yes" else Printf.sprintf "NO (fired=%d)" fired)

(* ------------------------------------------------------------------------- *)
(* E10: inter-object, inter-class rule end-to-end (§2.1 Purchase)             *)
(* ------------------------------------------------------------------------- *)

let e10 () =
  header "E10: Purchase rule (conjunction spanning two classes), 50k ticks";
  let db = Db.create () in
  Workloads.Stock_market.install db;
  let sys = System.create db in
  let rng = Prng.create 6 in
  let market =
    Workloads.Stock_market.populate db rng ~stocks:100 ~indexes:5 ~portfolios:10
  in
  let ibm = market.stocks.(0) and dow = market.indexes.(0) in
  let parker = market.portfolios.(0) in
  System.register_condition sys "cheap-and-calm" (fun db _ ->
      Value.to_float (Db.get db ibm "price") < 80.
      && Value.to_float (Db.get db dow "change") < 3.4);
  System.register_action sys "buy" (fun db _ ->
      ignore (Db.send db parker "purchase" [ Value.Obj ibm; Value.Int 1 ]));
  ignore
    (System.create_rule sys ~name:"Purchase" ~monitor:[ ibm; dow ]
       ~event:
         (Expr.conj
            (Expr.eom ~cls:"stock" ~sources:[ ibm ] "set_price")
            (Expr.eom ~cls:"financial_info" ~sources:[ dow ] "set_value"))
       ~condition:"cheap-and-calm" ~action:"buy" ());
  let ops = Workloads.Stock_market.ticks rng market ~n:50_000 in
  Db.reset_stats db;
  let (), ms = time_ms (fun () -> Workloads.Dsl.apply_ops db ops) in
  let info = System.rule_info sys (Option.get (System.find_rule sys "Purchase")) in
  row "  50k market ticks in %s (%d events generated, %d deliveries)\n"
    (fmt_ms ms) (Db.stats db).events_generated (Db.stats db).notifications;
  row "  conjunction detected %d times, condition passed %d times\n"
    info.Sentinel.Rule.triggered info.Sentinel.Rule.fired;
  row "  Parker's holdings: %s shares\n"
    (Value.to_string (Db.get db parker "shares"))

(* ------------------------------------------------------------------------- *)
(* E12: secondary-index ablation (substrate completeness)                     *)
(* ------------------------------------------------------------------------- *)

(* What creating 100k objects costs (one run), what an index over their
   unique keys costs to build, in time and in live memory, and the snapshot
   load that rebuilds one (recovery and shard restarts end in it).  Build
   and load times are the median of 5. *)
let e12_build () =
  let n = if Sys.getenv_opt "BENCH_SMOKE" <> None then 5_000 else 100_000 in
  header (Printf.sprintf "E12: index build over %d unique keys, and a snapshot load" n);
  let reps = 5 in
  let db = Db.create () in
  Workloads.Payroll.install db;
  let rng = Prng.create 12 in
  let names = Array.init n (Printf.sprintf "emp-%d") in
  let salaries = Array.init n (fun _ -> Prng.float rng 10_000.) in
  Gc.full_major ();
  let (), populate_ms =
    time_ms (fun () ->
        for i = 0 to n - 1 do
          ignore
            (Db.new_object db "employee"
               ~attrs:
                 [ ("name", Value.Str names.(i)); ("salary", Value.Float salaries.(i)) ])
        done)
  in
  row "  create %d objects  %10s\n" n (fmt_ms populate_ms);
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  List.iter
    (fun (kind, label) ->
      let build () =
        Db.drop_index db ~cls:"employee" ~attr:"name";
        Gc.full_major ();
        snd (time_ms (fun () -> Db.create_index db ~kind ~cls:"employee" ~attr:"name" ()))
      in
      let ms = median (List.init reps (fun _ -> build ())) in
      Db.drop_index db ~cls:"employee" ~attr:"name";
      let w0 = live_words () in
      Db.create_index db ~kind ~cls:"employee" ~attr:"name" ();
      let mb = float_of_int ((live_words () - w0) * (Sys.word_size / 8)) /. 1e6 in
      Db.drop_index db ~cls:"employee" ~attr:"name";
      row "  %-8s index on name  build %10s   live %6.1f MB\n" label (fmt_ms ms) mb)
    [ (`Hash, "hash"); (`Ordered, "ordered") ];
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  let text = Oodb.Persist.to_string db in
  let load () =
    let db2 = Db.create () in
    Workloads.Payroll.install db2;
    Gc.full_major ();
    snd (time_ms (fun () -> Oodb.Persist.of_string db2 text))
  in
  let ms = median (List.init reps (fun _ -> load ())) in
  row "  snapshot load, %d objects, hash index on name  %10s\n" n (fmt_ms ms)

let e12 () =
  header "E12: query cost -- scan vs hash index vs ordered index (50k objects)";
  let n = 50_000 in
  let build () =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let rng = Prng.create 8 in
    for i = 0 to n - 1 do
      ignore
        (Db.new_object db "employee"
           ~attrs:
             [
               ("name", Value.Str (string_of_int i));
               ("salary", Value.Float (Prng.float rng 10_000.));
             ])
    done;
    db
  in
  let eq_pred = Oodb.Query.Eq ("name", Value.Str "123") in
  let range_pred =
    Oodb.Query.And
      ( Oodb.Query.Ge ("salary", Value.Float 5000.),
        Oodb.Query.Lt ("salary", Value.Float 5050.) )
  in
  let measure db pred =
    let result = ref [] in
    let (), ms = time_ms (fun () -> result := Oodb.Query.select db "employee" pred) in
    (ms, List.length !result)
  in
  let db = build () in
  let scan_eq, hits_eq = measure db eq_pred in
  let scan_rg, hits_rg = measure db range_pred in
  Db.create_index db ~cls:"employee" ~attr:"name" ();
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
  let ix_eq, hits_eq' = measure db eq_pred in
  let ix_rg, hits_rg' = measure db range_pred in
  assert (hits_eq = hits_eq' && hits_rg = hits_rg');
  row "  equality probe   scan %10s   hash index    %10s  (%d hit)\n"
    (fmt_ms scan_eq) (fmt_ms ix_eq) hits_eq;
  row "  range probe      scan %10s   ordered index %10s  (%d hits)\n"
    (fmt_ms scan_rg) (fmt_ms ix_rg) hits_rg;
  e12_build ()

(* ------------------------------------------------------------------------- *)
(* E13: write-ahead-log overhead and recovery                                 *)
(* ------------------------------------------------------------------------- *)

let e13 () =
  header "E13: WAL overhead and recovery (10k transactional updates)";
  let n_updates = 10_000 in
  let build () =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let objs =
      Array.init 500 (fun i ->
          Db.new_object db "employee"
            ~attrs:[ ("name", Value.Str (string_of_int i)) ])
    in
    (db, objs)
  in
  let run db objs =
    let rng = Prng.create 9 in
    for _ = 1 to n_updates do
      match
        Transaction.atomically db (fun () ->
            Db.set db (Prng.choice rng objs) "salary"
              (Value.Float (Prng.float rng 100.)))
      with
      | Ok () -> ()
      | Error e -> raise e
    done
  in
  (let db, objs = build () in
   let (), ms = time_ms (fun () -> run db objs) in
   row "  no journal            %10s\n" (fmt_ms ms));
  let wal_path = Filename.temp_file "sentinel_bench" ".wal" in
  let snap_path = Filename.temp_file "sentinel_bench" ".db" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ wal_path; snap_path ])
    (fun () ->
      (* attach before populating so creations are in the log too; recovery
         below replays from an empty store (no snapshot needed) *)
      let db = Db.create () in
      Workloads.Payroll.install db;
      (* [~sync:false]: E13 measures journaling overhead (encoding + the
         write path), not the disk's fsync latency — E-recovery prices the
         durable path separately *)
      let wal = Oodb.Wal.attach ~sync:false db wal_path in
      let objs =
        Array.init 500 (fun i ->
            Db.new_object db "employee"
              ~attrs:[ ("name", Value.Str (string_of_int i)) ])
      in
      let (), ms = time_ms (fun () -> run db objs) in
      row "  WAL attached          %10s  (%d batches, %d entries)\n" (fmt_ms ms)
        (Oodb.Wal.batches_written wal)
        (Oodb.Wal.entries_written wal);
      Oodb.Wal.detach wal;
      let (db2, applied), rec_ms =
        time_ms (fun () ->
            let db2 = Db.create () in
            Workloads.Payroll.install db2;
            let applied = Oodb.Wal.replay db2 wal_path in
            (db2, applied))
      in
      ignore db2;
      row "  crash recovery        %10s  (%d batches replayed)\n" (fmt_ms rec_ms)
        applied)

(* ------------------------------------------------------------------------- *)
(* E14: coupling-mode ablation (§4.4 rule attribute `mode`)                   *)
(* ------------------------------------------------------------------------- *)

let e14 () =
  header "E14: coupling modes -- same rule, 5k transactional updates";
  row "  %-10s  %12s  %12s\n" "mode" "time" "actions run";
  let n_updates = 5_000 in
  List.iter
    (fun coupling ->
      let db = Db.create () in
      Workloads.Payroll.install db;
      let sys = System.create db in
      System.register_action sys "noop" (fun _ _ -> ());
      let objs =
        Array.init 100 (fun i ->
            Db.new_object db "employee"
              ~attrs:[ ("name", Value.Str (string_of_int i)) ])
      in
      ignore
        (System.create_rule sys ~coupling ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true" ~action:"noop" ());
      let rng = Prng.create 10 in
      let (), ms =
        time_ms (fun () ->
            for _ = 1 to n_updates do
              match
                Transaction.atomically db (fun () ->
                    ignore
                      (Db.send db (Prng.choice rng objs) "set_salary"
                         [ Value.Float 1. ]))
              with
              | Ok () -> ()
              | Error e -> raise e
            done)
      in
      row "  %-10s  %12s  %12d\n"
        (Sentinel.Coupling.to_string coupling)
        (fmt_ms ms) (System.stats sys).actions_executed)
    Sentinel.Coupling.all

(* ------------------------------------------------------------------------- *)
(* E-routing: discrimination-indexed delivery vs per-rule broadcast           *)
(* ------------------------------------------------------------------------- *)

(* One rule matches the workload's method; the rest are class-level rules on
   a method the workload never calls.  Broadcast pays every rule's detector
   on every event; the index probes only the (method, modifier) bucket, so
   throughput should be flat in the number of non-matching rules. *)
let e_routing () =
  header "E-routing: indexed vs broadcast delivery, 10k payroll updates";
  let n_updates = 10_000 in
  let sweep = [ 1; 10; 100; 1000 ] in
  let run routing n_rules =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create ~routing db in
    System.register_action sys "noop" (fun _ _ -> ());
    ignore
      (System.create_rule sys ~name:"match"
         ~monitor_classes:[ "employee" ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:"noop" ());
    for i = 2 to n_rules do
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "miss-%d" i)
           ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "change_income")
           ~condition:"true" ~action:"noop" ())
    done;
    let rng = Prng.create 42 in
    let pop = Workloads.Payroll.populate db rng ~managers:10 ~employees:90 in
    let objs = Array.append pop.managers pop.employees in
    System.reset_stats sys;
    let (), ms =
      time_ms (fun () ->
          for _ = 1 to n_updates do
            ignore
              (Db.send db (Prng.choice rng objs) "set_salary"
                 [ Value.Float 1. ])
          done)
    in
    let s = System.stats sys in
    ( float_of_int n_updates /. (ms /. 1000.),
      s.System.actions_executed,
      s.System.candidates_probed,
      s.System.leaves_offered,
      s.System.index_hits )
  in
  row "  %6s  %14s  %14s  %8s  %10s  %8s\n" "rules" "broadcast ev/s"
    "indexed ev/s" "speedup" "probed" "offered";
  let rows =
    List.map
      (fun n_rules ->
        let b_eps, b_fired, _, _, _ = run System.Broadcast n_rules in
        let i_eps, i_fired, probed, offered, hits = run System.Indexed n_rules in
        assert (b_fired = i_fired);
        let speedup = i_eps /. b_eps in
        row "  %6d  %14.0f  %14.0f  %7.1fx  %10d  %8d\n" n_rules b_eps i_eps
          speedup probed offered;
        (n_rules, b_eps, i_eps, speedup, probed, offered, hits))
      sweep
  in
  let oc = open_out "BENCH_routing.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-routing\",\n  \"updates\": %d,\n  \"population\": 100,\n  \"workload\": \"payroll set_salary; 1 matching rule + (n-1) non-matching class-level rules\",\n  \"rows\": [\n"
    n_updates;
  List.iteri
    (fun i (n_rules, b_eps, i_eps, speedup, probed, offered, hits) ->
      Printf.fprintf oc
        "    {\"rules\": %d, \"broadcast_events_per_sec\": %.0f, \
         \"indexed_events_per_sec\": %.0f, \"speedup\": %.2f, \
         \"candidates_probed\": %d, \"leaves_offered\": %d, \"index_hits\": \
         %d}%s\n"
        n_rules b_eps i_eps speedup probed offered hits
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  row "  wrote BENCH_routing.json\n"

(* ------------------------------------------------------------------------- *)
(* E-recovery: WAL replay throughput and the price of durability              *)
(* ------------------------------------------------------------------------- *)

let e_recovery () =
  header "E-recovery: WAL replay throughput (banking workload)";
  let module Mem = Oodb.Storage.Mem in
  let module Banking = Workloads.Banking in
  let log_path = "bank.wal" in
  let run_txns db txns =
    List.iter
      (fun (acct, meth, args) ->
        match
          Transaction.atomically db (fun () -> ignore (Db.send db acct meth args))
        with
        | Ok () -> ()
        | Error e -> raise e)
      txns
  in
  (* replay throughput over in-memory logs of increasing size *)
  let build n =
    let fs = Mem.create () in
    let storage = Mem.storage fs in
    let db = Db.create () in
    Banking.install db;
    let wal = Oodb.Wal.attach ~storage ~sync:false db log_path in
    let rng = Prng.create 11 in
    let accts = Banking.populate db rng ~accounts:100 in
    run_txns db (Banking.transactions rng accts ~n ());
    Oodb.Wal.detach wal;
    (fs, storage)
  in
  row "  %12s  %10s  %10s  %10s  %14s\n" "transactions" "log bytes" "batches"
    "replay" "batches/s";
  let rows =
    List.map
      (fun n ->
        let fs, storage = build n in
        let bytes = String.length (Mem.durable fs log_path) in
        let (applied, discarded), ms =
          time_ms (fun () ->
              let db2 = Db.create () in
              Banking.install db2;
              let applied = Oodb.Wal.replay ~storage db2 log_path in
              (applied, (Db.stats db2).Oodb.Types.wal_batches_discarded))
        in
        assert (discarded = 0);
        let bps = float_of_int applied /. (ms /. 1000.) in
        row "  %12d  %10d  %10d  %10s  %14.0f\n" n bytes applied (fmt_ms ms) bps;
        (n, bytes, applied, ms, bps))
      (if Sys.getenv_opt "BENCH_SMOKE" <> None then [ 500; 2_000 ]
       else [ 1_000; 5_000; 20_000 ])
  in
  (* the price of the fsync-per-commit durability contract, on the real fs *)
  let durability_n = 1_000 in
  let durable_run sync =
    let path = Filename.temp_file "sentinel_bench" ".wal" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let db = Db.create () in
        Banking.install db;
        let wal = Oodb.Wal.attach ~sync db path in
        let rng = Prng.create 3 in
        let accts = Banking.populate db rng ~accounts:50 in
        let txns = Banking.transactions rng accts ~n:durability_n () in
        let (), ms = time_ms (fun () -> run_txns db txns) in
        let fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs in
        Oodb.Wal.detach wal;
        (ms, fsyncs))
  in
  let sync_ms, sync_fsyncs = durable_run true in
  let nosync_ms, _ = durable_run false in
  row "  durability: %d txns   fsync-per-commit %10s (%d fsyncs)   buffered %10s\n"
    durability_n (fmt_ms sync_ms) sync_fsyncs (fmt_ms nosync_ms);
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  (* group commit: durable (sync:true) commits/sec on the real fs, with the
     coordinator coalescing 1 / 8 / 64 commits per WAL batch + fsync *)
  let group_n = if smoke then 300 else durability_n in
  let grouped_run g =
    let path = Filename.temp_file "sentinel_bench" ".wal" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let db = Db.create () in
        Banking.install db;
        let wal =
          Oodb.Wal.attach ~sync:true
            ~group_commit:{ Oodb.Wal.max_batch = g; max_wait_us = max_int }
            db path
        in
        let rng = Prng.create 3 in
        let accts = Banking.populate db rng ~accounts:50 in
        Oodb.Wal.sync wal;
        let before_fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs in
        let txns = Banking.transactions rng accts ~n:group_n () in
        let (), ms =
          time_ms (fun () ->
              run_txns db txns;
              Oodb.Wal.sync wal)
        in
        let fsyncs = (Db.stats db).Oodb.Types.wal_fsyncs - before_fsyncs in
        Oodb.Wal.detach wal;
        (float_of_int group_n /. (ms /. 1000.), ms, fsyncs))
  in
  row "  %12s  %12s  %10s  %8s\n" "group size" "commits/s" "time" "fsyncs";
  let group_rows =
    List.map
      (fun g ->
        let cps, ms, fsyncs = grouped_run g in
        row "  %12d  %12.0f  %10s  %8d\n" g cps (fmt_ms ms) fsyncs;
        (g, cps, ms, fsyncs))
      [ 1; 8; 64 ]
  in
  (* compaction: recovery time against the same log before and after
     [Wal.compact] folds it into a base snapshot *)
  let snap_path = "bank.db" in
  let recover_ms storage =
    let _, ms =
      time_ms (fun () ->
          let db2 = Db.create () in
          Banking.install db2;
          Oodb.Wal.recover ~storage db2 ~snapshot:snap_path ~wal:log_path)
    in
    ms
  in
  row "  %12s  %10s  %10s  %14s  %12s\n" "transactions" "wal bytes"
    "recover" "compacted wal" "recover(c)";
  let compact_rows =
    List.map
      (fun n ->
        let fs = Mem.create () in
        let storage = Mem.storage fs in
        let db = Db.create () in
        Banking.install db;
        let wal = Oodb.Wal.attach ~storage ~sync:false db log_path in
        let rng = Prng.create 11 in
        let accts = Banking.populate db rng ~accounts:100 in
        run_txns db (Banking.transactions rng accts ~n ());
        let bytes = String.length (Mem.durable fs log_path) in
        let ms_before = recover_ms storage in
        Oodb.Wal.compact wal ~snapshot:snap_path;
        Oodb.Wal.detach wal;
        let bytes_after = String.length (Mem.durable fs log_path) in
        let ms_after = recover_ms storage in
        row "  %12d  %10d  %10s  %14d  %12s\n" n bytes (fmt_ms ms_before)
          bytes_after (fmt_ms ms_after);
        (n, bytes, ms_before, bytes_after, ms_after))
      (if smoke then [ 500; 2_000 ] else [ 1_000; 5_000; 20_000 ])
  in
  (* incremental checkpoints: at 10% dirty, the delta's cost must track the
     dirty set, not the store *)
  row "  %12s  %8s  %12s  %10s  %12s  %10s\n" "objects" "dirty" "full bytes"
    "full ckpt" "delta bytes" "delta ckpt";
  let scaling_rows =
    List.map
      (fun n ->
        let fs = Mem.create () in
        let storage = Mem.storage fs in
        let db = Db.create () in
        Banking.install db;
        let wal = Oodb.Wal.attach ~storage ~sync:false db log_path in
        let rng = Prng.create 17 in
        let accts = Banking.populate db rng ~accounts:n in
        let (), full_ms =
          time_ms (fun () -> Oodb.Wal.checkpoint wal ~snapshot:snap_path)
        in
        let full_bytes = String.length (Mem.durable fs snap_path) in
        let dirty = max 1 (n / 10) in
        for i = 0 to dirty - 1 do
          Db.set db accts.(i) "balance" (Value.Float (float_of_int i))
        done;
        let (), delta_ms =
          time_ms (fun () ->
              Oodb.Wal.checkpoint ~mode:`Delta wal ~snapshot:snap_path)
        in
        let delta_bytes =
          String.length (Mem.durable fs (snap_path ^ ".delta-1"))
        in
        Oodb.Wal.detach wal;
        row "  %12d  %8d  %12d  %10s  %12d  %10s\n" n dirty full_bytes
          (fmt_ms full_ms) delta_bytes (fmt_ms delta_ms);
        (n, dirty, full_bytes, full_ms, delta_bytes, delta_ms))
      (if smoke then [ 500; 2_000 ] else [ 1_000; 5_000; 20_000 ])
  in
  let oc = open_out "BENCH_recovery.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-recovery\",\n  \"workload\": \"banking \
     deposits/withdrawals, one transaction per batch, 100 accounts\",\n\
    \  \"durability\": {\"transactions\": %d, \"fsync_per_commit_ms\": %.2f, \
     \"fsyncs\": %d, \"buffered_ms\": %.2f},\n  \"group_commit\": [\n"
    durability_n sync_ms sync_fsyncs nosync_ms;
  List.iteri
    (fun i (g, cps, ms, fsyncs) ->
      Printf.fprintf oc
        "    {\"group\": %d, \"commits_per_sec\": %.0f, \"ms\": %.2f, \
         \"fsyncs\": %d}%s\n"
        g cps ms fsyncs
        (if i = List.length group_rows - 1 then "" else ","))
    group_rows;
  Printf.fprintf oc "  ],\n  \"compaction\": [\n";
  List.iteri
    (fun i (n, bytes, ms_b, bytes_a, ms_a) ->
      Printf.fprintf oc
        "    {\"transactions\": %d, \"wal_bytes\": %d, \"recover_ms\": %.2f, \
         \"compacted_wal_bytes\": %d, \"recover_compacted_ms\": %.2f}%s\n"
        n bytes ms_b bytes_a ms_a
        (if i = List.length compact_rows - 1 then "" else ","))
    compact_rows;
  Printf.fprintf oc "  ],\n  \"checkpoint_scaling\": [\n";
  List.iteri
    (fun i (n, dirty, fb, fm, db_, dm) ->
      Printf.fprintf oc
        "    {\"objects\": %d, \"dirty\": %d, \"full_bytes\": %d, \
         \"full_ms\": %.2f, \"delta_bytes\": %d, \"delta_ms\": %.2f}%s\n"
        n dirty fb fm db_ dm
        (if i = List.length scaling_rows - 1 then "" else ","))
    scaling_rows;
  Printf.fprintf oc "  ],\n  \"rows\": [\n";
  List.iteri
    (fun i (n, bytes, applied, ms, bps) ->
      Printf.fprintf oc
        "    {\"transactions\": %d, \"log_bytes\": %d, \"batches_replayed\": \
         %d, \"replay_ms\": %.2f, \"batches_per_sec\": %.0f}%s\n"
        n bytes applied ms bps
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  row "  wrote BENCH_recovery.json\n";
  (* CI regression gates (smoke runs only): group commit must actually buy
     durable throughput, and the delta checkpoint must be priced by the
     dirty set, not the store. *)
  if smoke then begin
    let cps g =
      List.find_map
        (fun (g', cps, _, _) -> if g' = g then Some cps else None)
        group_rows
      |> Option.get
    in
    if cps 64 < 5. *. cps 1 then begin
      row "  FAIL: group-64 durable commits/sec below 5x group-1 (%.0f vs %.0f)\n"
        (cps 64) (cps 1);
      exit 1
    end
    else
      row "  bench-smoke gate: group-64 >= 5x group-1 durable commits/sec (ok)\n";
    let n, _, full_bytes, _, delta_bytes, _ =
      List.nth scaling_rows (List.length scaling_rows - 1)
    in
    if delta_bytes * 4 >= full_bytes then begin
      row
        "  FAIL: 10%%-dirty delta checkpoint not under 1/4 of the full \
         snapshot at %d objects (%d vs %d bytes)\n"
        n delta_bytes full_bytes;
      exit 1
    end
    else
      row
        "  bench-smoke gate: 10%%-dirty delta <= 1/4 full snapshot bytes (ok)\n"
  end

(* ------------------------------------------------------------------------- *)
(* E-containment: fault injection — throughput with 0/1/10% failing rules     *)
(* ------------------------------------------------------------------------- *)

(* 100 class-level rules share every event; a fraction of them have actions
   that always raise.  Under [Contain] every failure is absorbed and
   dead-lettered, so the failure overhead is paid on every event; under
   [Quarantine 3] the breakers trip after 3 failures each and throughput
   recovers to near the healthy baseline.  Both routings, so containment
   cost is visible relative to each delivery path. *)
let e_containment () =
  header "E-containment: fault-injected rule execution, 100 shared rules";
  (* BENCH_SMOKE: CI-sized run *)
  let n_updates =
    match Sys.getenv_opt "BENCH_SMOKE" with Some _ -> 500 | None -> 5_000
  in
  let n_rules = 100 in
  let run routing policy bad_pct =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create ~routing ~retry_backoff:(fun _ -> ()) db in
    System.register_action sys "noop" (fun _ _ -> ());
    System.register_action sys "explode" (fun _ _ -> failwith "boom");
    let n_bad = n_rules * bad_pct / 100 in
    for i = 1 to n_rules do
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "r-%d" i)
           ~policy ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true"
           ~action:(if i <= n_bad then "explode" else "noop")
           ())
    done;
    let rng = Prng.create 42 in
    let pop = Workloads.Payroll.populate db rng ~managers:10 ~employees:90 in
    let objs = Array.append pop.managers pop.employees in
    System.reset_stats sys;
    let (), ms =
      time_ms (fun () ->
          for _ = 1 to n_updates do
            ignore
              (Db.send db (Prng.choice rng objs) "set_salary"
                 [ Value.Float 1. ])
          done)
    in
    let s = System.stats sys in
    ( float_of_int n_updates /. (ms /. 1000.),
      s.System.contained_failures,
      s.System.quarantined_rules,
      s.System.dead_letters )
  in
  let configs =
    [
      (System.Indexed, "indexed"); (System.Broadcast, "broadcast");
    ]
  and policies =
    [
      (Error_policy.Contain, "contain");
      (Error_policy.Quarantine 3, "quarantine:3");
    ]
  and pcts = [ 0; 1; 10 ] in
  row "  %9s  %13s  %5s  %12s  %10s  %12s  %8s\n" "routing" "policy" "bad%"
    "events/s" "contained" "quarantined" "queued";
  let rows =
    List.concat_map
      (fun (routing, rname) ->
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun pct ->
                let eps, contained, quarantined, queued =
                  run routing policy pct
                in
                row "  %9s  %13s  %4d%%  %12.0f  %10d  %12d  %8d\n" rname
                  pname pct eps contained quarantined queued;
                (rname, pname, pct, eps, contained, quarantined, queued))
              pcts)
          policies)
      configs
  in
  let oc = open_out "BENCH_containment.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-containment\",\n  \"updates\": %d,\n  \
     \"rules\": %d,\n  \"workload\": \"payroll set_salary; all rules share \
     every event; bad%% of rules have always-raising actions\",\n  \"rows\": \
     [\n"
    n_updates n_rules;
  List.iteri
    (fun i (rname, pname, pct, eps, contained, quarantined, queued) ->
      Printf.fprintf oc
        "    {\"routing\": \"%s\", \"policy\": \"%s\", \"failing_pct\": %d, \
         \"events_per_sec\": %.0f, \"contained_failures\": %d, \
         \"quarantined_rules\": %d, \"dead_letters\": %d}%s\n"
        rname pname pct eps contained quarantined queued
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  row "  wrote BENCH_containment.json\n"

(* ------------------------------------------------------------------------- *)
(* E-oltp: compiled slot layout on get/set/send, and the shards axis         *)
(* ------------------------------------------------------------------------- *)

(* Wide passive classes (10/100/1000 attributes), 1k instances, hot
   attribute in the middle of the layout.  Accessors go through the
   pre-resolved slot API — the path rule conditions, the DSL and the rule
   scheduler actually use.  String-keyed access is reported alongside.
   Under BENCH_SMOKE the run doubles as a CI regression gate on the shards
   axis (below). *)
let e_oltp () =
  header "E-oltp: slot layout objects (get/set/send micro-bench)";
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  let rw_iters = if smoke then 100_000 else 1_000_000 in
  let send_iters = if smoke then 20_000 else 200_000 in
  let n_objects = if smoke then 200 else 1_000 in
  let sizes = [ 10; 100; 1000 ] in
  (* ops/s and heap bytes allocated per op for [iters] runs of [f] *)
  let measure iters f =
    let bytes0 = Gc.allocated_bytes () in
    let (), ms = time_ms (fun () -> for _ = 1 to iters do f () done) in
    ((float_of_int iters /. ms) *. 1000., (Gc.allocated_bytes () -. bytes0) /. float_of_int iters)
  in
  let run size =
    let db = Db.create () in
    let hot = Printf.sprintf "a%d" (size / 2) in
    Db.define_class db
      (Schema.define "wide"
         ~attrs:(List.init size (fun i -> (Printf.sprintf "a%d" i, Value.Int 0)))
         ~methods:
           [ ("poke", Workloads.Dsl.setter hot); ("peek", Workloads.Dsl.getter hot) ]);
    (* object creation throughput first: it also populates the working set *)
    let objs = Array.make n_objects (Oid.of_int 0) in
    let create_ops, create_bytes =
      measure n_objects
        (let i = ref 0 in
         fun () ->
           objs.(!i) <- Db.new_object db "wide";
           incr i)
    in
    let slot = Db.resolve db "wide" hot in
    let next =
      let i = ref 0 in
      fun () ->
        let o = Array.unsafe_get objs (!i land (16 - 1)) in
        incr i;
        o
    in
    let one = Value.Int 1 in
    let get_ops, get_bytes =
      measure rw_iters (fun () -> ignore (Db.slot_get db (next ()) slot))
    in
    let set_ops, set_bytes =
      measure rw_iters (fun () -> Db.slot_set db (next ()) slot one)
    in
    let get_str_ops, _ = measure rw_iters (fun () -> ignore (Db.get db (next ()) hot)) in
    let set_str_ops, _ = measure rw_iters (fun () -> Db.set db (next ()) hot one) in
    let args = [ one ] in
    let send_ops, send_bytes =
      measure send_iters (fun () -> ignore (Db.send db (next ()) "poke" args))
    in
    row "  %5d  get %11.0f/s (%3.0fB)  set %11.0f/s (%3.0fB)  send %10.0f/s (%3.0fB)\n"
      size get_ops get_bytes set_ops set_bytes send_ops send_bytes;
    ( size, get_ops, get_bytes, set_ops, set_bytes, send_ops, send_bytes,
      get_str_ops, set_str_ops, create_ops, create_bytes )
  in
  row "  %5s\n" "attrs";
  let rows = List.map run sizes in
  (* Query.matches contract: one object fetch per candidate, checked here so
     the bench fails loudly if select regresses to per-attribute fetches. *)
  let query_probes_ok =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let rng = Prng.create 7 in
    ignore (Workloads.Payroll.populate db rng ~managers:10 ~employees:90);
    Oodb.Query.reset_probes ();
    ignore
      (Oodb.Query.select db "employee"
         (Oodb.Query.And
            ( Oodb.Query.Ge ("salary", Value.Float 0.),
              Oodb.Query.Has "name" )));
    let ok = Oodb.Query.probes () = 100 in
    row "  query probes: %d object fetches for 100 candidates %s\n"
      (Oodb.Query.probes ())
      (if ok then "(ok)" else "(REGRESSION: expected 100)");
    ok
  in
  (* The E-routing heavy row (1000 rules) re-run on the slot layout, both
     routing modes, so the discrimination-index numbers are refreshed
     against interned occurrence keys. *)
  let routing_updates = if smoke then 1_000 else 10_000 in
  let routed routing =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create ~routing db in
    System.register_action sys "noop" (fun _ _ -> ());
    ignore
      (System.create_rule sys ~name:"match" ~monitor_classes:[ "employee" ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:"noop" ());
    for i = 2 to 1000 do
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "miss-%d" i)
           ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "change_income")
           ~condition:"true" ~action:"noop" ())
    done;
    let rng = Prng.create 42 in
    let pop = Workloads.Payroll.populate db rng ~managers:10 ~employees:90 in
    let objs = Array.append pop.managers pop.employees in
    let (), ms =
      time_ms (fun () ->
          for _ = 1 to routing_updates do
            ignore (Db.send db (Prng.choice rng objs) "set_salary" [ Value.Float 1. ])
          done)
    in
    float_of_int routing_updates /. (ms /. 1000.)
  in
  let b_eps = routed System.Broadcast in
  let i_eps = routed System.Indexed in
  row "  1000-rule routing: broadcast %.0f ev/s, indexed %.0f ev/s (%.1fx)\n"
    b_eps i_eps (i_eps /. b_eps);
  (* Domain-parallel send throughput: one reactive rule per shard, sends
     routed by OID hash through a Shard_pool at shards={1,2,4}.  Every row,
     the 1-shard one included, posts to worker domains through mailboxes;
     the direct row is the raw Db.send path on the caller, for reference.
     The scaling gate only applies when the machine has cores to scale
     onto. *)
  let shard_send_iters = if smoke then 40_000 else 200_000 in
  let cores = Domain.recommended_domain_count () in
  let shard_init _pool _i =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create db in
    System.register_action sys "noop" (fun _ _ -> ());
    ignore
      (System.create_rule sys ~name:"watch" ~monitor_classes:[ "employee" ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:"noop" ());
    sys
  in
  let shard_eps ?(supervised = false) n_shards =
    let supervision =
      if supervised then Some Sentinel.Shard_pool.default_supervision
      else None
    in
    let pool =
      Sentinel.Shard_pool.create ~shards:n_shards ?supervision
        ~init:shard_init ()
    in
    let per_shard = 256 / n_shards in
    let objs =
      Array.concat
        (List.init n_shards (fun i ->
             match
               Sentinel.Shard_pool.run_on pool i (fun sys ->
                   Array.init per_shard (fun _ ->
                       Db.new_object (System.db sys) "employee"))
             with
             | Ok a -> a
             | Error e -> raise e))
    in
    let args = [ Value.Float 1. ] in
    let mask = Array.length objs - 1 in
    let (), ms =
      time_ms (fun () ->
          for k = 0 to shard_send_iters - 1 do
            ignore
              (Sentinel.Shard_pool.post pool objs.(k land mask) "set_salary"
                 args)
          done;
          Sentinel.Shard_pool.drain pool)
    in
    Sentinel.Shard_pool.stop pool;
    float_of_int shard_send_iters /. (ms /. 1000.)
  in
  let direct_eps =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create db in
    System.register_action sys "noop" (fun _ _ -> ());
    ignore
      (System.create_rule sys ~name:"watch" ~monitor_classes:[ "employee" ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:"noop" ());
    let objs = Array.init 256 (fun _ -> Db.new_object db "employee") in
    let args = [ Value.Float 1. ] in
    let (), ms =
      time_ms (fun () ->
          for k = 0 to shard_send_iters - 1 do
            ignore (Db.send db objs.(k land 255) "set_salary" args)
          done)
    in
    float_of_int shard_send_iters /. (ms /. 1000.)
  in
  let shard_rows = List.map (fun n -> (n, shard_eps n)) [ 1; 2; 4 ] in
  let shards1 = List.assoc 1 shard_rows in
  (* the supervised row prices the watchdog: same workload, same stride,
     plus a heartbeat-sweeping supervisor domain and the bounded-inbox
     accounting on every post *)
  let supervised2 = shard_eps ~supervised:true 2 in
  row "  direct (no pool) send %10.0f ev/s on %d core%s\n" direct_eps cores
    (if cores = 1 then "" else "s");
  List.iter
    (fun (n, eps) ->
      row "  shards=%d  send %10.0f ev/s  (%.2fx vs shards=1)\n" n eps
        (eps /. shards1))
    shard_rows;
  row "  shards=2 supervised %8.0f ev/s  (%.2fx vs unsupervised)\n"
    supervised2
    (supervised2 /. List.assoc 2 shard_rows);
  let oc = open_out "BENCH_oltp.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-oltp\",\n  \"rw_iters\": %d,\n  \"send_iters\": \
     %d,\n  \"objects\": %d,\n  \"workload\": \"wide passive class, hot \
     middle attribute via pre-resolved slot handles; bytes are heap bytes \
     allocated per op\",\n  \"query_probe_per_candidate\": %b,\n  \
     \"routing_1000_rules\": {\"broadcast_events_per_sec\": %.0f, \
     \"indexed_events_per_sec\": %.0f, \"speedup\": %.2f},\n  \
     \"cores\": %d,\n  \"shards\": {\"send_iters\": %d, \
     \"direct_send_events_per_sec\": %.0f, \"rows\": [%s], \
     \"supervised\": {\"shards\": 2, \"send_events_per_sec\": %.0f, \
     \"ratio_vs_unsupervised\": %.3f}},\n  \"rows\": [\n"
    rw_iters send_iters n_objects query_probes_ok b_eps i_eps (i_eps /. b_eps)
    cores shard_send_iters direct_eps
    (String.concat ", "
       (List.map
          (fun (n, eps) ->
            Printf.sprintf
              "{\"shards\": %d, \"send_events_per_sec\": %.0f, \
               \"speedup_vs_1\": %.2f}"
              n eps (eps /. shards1))
          shard_rows))
    supervised2
    (supervised2 /. List.assoc 2 shard_rows);
  List.iteri
    (fun i (size, g, gb, s, sb, snd_, sndb, gs, ss, c, cb) ->
      Printf.fprintf oc
        "    {\"layout\": \"slots\", \"attrs\": %d, \"get_ops_per_sec\": %.0f, \
         \"get_bytes_per_op\": %.1f, \"set_ops_per_sec\": %.0f, \
         \"set_bytes_per_op\": %.1f, \"send_ops_per_sec\": %.0f, \
         \"send_bytes_per_op\": %.1f, \"get_string_ops_per_sec\": %.0f, \
         \"set_string_ops_per_sec\": %.0f, \"create_ops_per_sec\": %.0f, \
         \"create_bytes_per_obj\": %.0f}%s\n"
        size g gb s sb snd_ sndb gs ss c cb
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  row "  wrote BENCH_oltp.json\n";
  (* CI regression gates (smoke runs only) on the shards axis: adding a
     shard must actually scale where cores exist, and supervision must stay
     cheap. *)
  if smoke then begin
    let shards2 = List.assoc 2 shard_rows in
    if cores >= 2 then begin
      if shards2 < 1.6 *. shards1 then begin
        row "  FAIL: shards=2 send %.0f ev/s below 1.6x shards=1 %.0f ev/s\n"
          shards2 shards1;
        exit 1
      end
      else row "  bench-smoke gate: shards=2 >= 1.6x shards=1 (ok)\n";
      (* supervision must be close to free on the happy path: the watchdog
         sweeps and the bounded-inbox bookkeeping ride on every send *)
      if supervised2 < 0.95 *. shards2 then begin
        row "  FAIL: supervised shards=2 send %.0f ev/s below 95%% of \
             unsupervised %.0f ev/s\n"
          supervised2 shards2;
        exit 1
      end
      else
        row "  bench-smoke gate: supervised shards=2 within 5%% of \
             unsupervised (ok)\n"
    end
    else
      row "  bench-smoke gate: shards=2 scaling not gated on %d core\n" cores
  end

(* ------------------------------------------------------------------------- *)
(* E-obs: observability overhead (metrics registry + cascade tracer)          *)
(* ------------------------------------------------------------------------- *)

(* Every instrumented call site shares one disabled-path shape: a
   [!Obs.armed] load and a branch, then a tail call of the raw
   implementation.  There is no un-instrumented binary to diff against, so
   the disabled overhead is *derived*: the measured cost of that gate
   primitive, times the gates an operation crosses, over the operation's own
   latency.  The off-vs-off spread of repeated runs is printed next to it as
   the noise floor — wall-clock diffs in the low single digits at these op
   rates are dominated by it, which is exactly why the CI gate runs on the
   derived number.  Enabled overhead (metrics, tracing) is measured
   directly. *)
let e_obs () =
  header "E-obs: observability overhead (metrics + tracing on the oltp micro-bench)";
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  let iters = if smoke then 200_000 else 1_000_000 in
  let send_iters = if smoke then 40_000 else 200_000 in
  let gate_iters = if smoke then 10_000_000 else 50_000_000 in
  let n_objects = 200 in
  Obs.Metrics.disable ();
  Obs.Trace.disable ();
  let db = Db.create () in
  let size = 100 in
  let hot = Printf.sprintf "a%d" (size / 2) in
  Db.define_class db
    (Schema.define "wide"
       ~attrs:(List.init size (fun i -> (Printf.sprintf "a%d" i, Value.Int 0)))
       ~methods:[ ("poke", Workloads.Dsl.setter hot) ]);
  let objs = Array.init n_objects (fun _ -> Db.new_object db "wide") in
  let slot = Db.resolve db "wide" hot in
  let next =
    let i = ref 0 in
    fun () ->
      let o = Array.unsafe_get objs (!i land (16 - 1)) in
      incr i;
      o
  in
  let one = Value.Int 1 in
  (* best of 3: overhead ratios compare each mode's attainable rate, not its
     scheduling jitter *)
  let ops iters f =
    let best = ref 0. in
    for _ = 1 to 3 do
      let (), ms = time_ms (fun () -> for _ = 1 to iters do f () done) in
      best := Float.max !best (float_of_int iters /. ms *. 1000.)
    done;
    !best
  in
  let get () = ignore (Db.slot_get db (next ()) slot) in
  let set () = Db.slot_set db (next ()) slot one in
  let args = [ one ] in
  let send () = ignore (Db.send db (next ()) "poke" args) in
  let mode name =
    let g = ops iters get and s = ops iters set and d = ops send_iters send in
    row "  %-12s get %11.0f/s  set %11.0f/s  send %10.0f/s\n" name g s d;
    (g, s, d)
  in
  let g0, s0, d0 = mode "off" in
  let g1, s1, d1 = mode "off-again" in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let gm, sm, dm = mode "metrics-on" in
  Obs.Metrics.disable ();
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  let gt, st, dt = mode "trace-on" in
  Obs.Trace.disable ();
  (* The gate primitive (one ref load + branch), isolated from its
     measurement loop by subtracting an empty loop of the same trip count;
     best of 3 for both, and floored at a conservative 0.1 ns so a noisy
     subtraction cannot flatter the estimate to zero. *)
  let sink = ref 0 in
  let loop_ns body =
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let (), ms = time_ms (fun () -> for _ = 1 to gate_iters do body () done) in
      best := Float.min !best (ms *. 1e6 /. float_of_int gate_iters)
    done;
    !best
  in
  let empty_ns = loop_ns (fun () -> ()) in
  let gated_ns = loop_ns (fun () -> if !Obs.armed then incr sink) in
  let gate_ns = Float.max 0.1 (gated_ns -. empty_ns) in
  (* Gates crossed per operation: slot_get/slot_set are one wrapper each; a
     send crosses its own wrapper plus the slot write inside the method, with
     one spare for the occurrence path of reactive receivers. *)
  let derived base gates = gate_ns *. float_of_int gates /. (1e9 /. base) *. 100. in
  let dg = derived g0 1 and ds = derived s0 1 and dd = derived d0 3 in
  let noise base v = Float.abs (v -. base) /. base *. 100. in
  let enabled base v = (base /. v -. 1.) *. 100. in
  row "  gate primitive: %.2f ns/check\n" gate_ns;
  row "  disabled overhead (derived): get %.3f%%  set %.3f%%  send %.3f%%\n" dg ds dd;
  row "  off-vs-off noise floor:      get %.1f%%  set %.1f%%  send %.1f%%\n"
    (noise g0 g1) (noise s0 s1) (noise d0 d1);
  row "  metrics-on overhead:         get %.1f%%  set %.1f%%  send %.1f%%\n"
    (enabled g0 gm) (enabled s0 sm) (enabled d0 dm);
  row "  trace-on overhead:           get %.1f%%  set %.1f%%  send %.1f%%\n"
    (enabled g0 gt) (enabled s0 st) (enabled d0 dt);
  (* A representative cascade for the CI artifact: banking deposit->withdraw
     in deferred coupling inside one explicit transaction, so the trace
     spans send, routing, detection, scheduling and firing. *)
  let sample_db = Db.create () in
  let sys = System.create sample_db in
  Workloads.Banking.install sample_db;
  let rng = Prng.create 7 in
  let accounts = Workloads.Banking.populate sample_db rng ~accounts:4 in
  System.register_action sys "noop" (fun _ _ -> ());
  ignore
    (System.create_rule sys ~name:"depwit" ~coupling:Sentinel.Coupling.Deferred
       ~monitor_classes:[ Workloads.Banking.account_class ]
       ~event:
         (Expr.seq
            (Expr.eom ~cls:Workloads.Banking.account_class "deposit")
            (Expr.bom ~cls:Workloads.Banking.account_class "withdraw"))
       ~condition:"true" ~action:"noop" ());
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  (match
     Transaction.atomically sample_db (fun () ->
         ignore (Db.send sample_db accounts.(0) "deposit" [ Value.Float 10. ]);
         ignore (Db.send sample_db accounts.(0) "withdraw" [ Value.Float 5. ]))
   with
  | Ok () -> ()
  | Error e -> raise e);
  Obs.Trace.disable ();
  let sample = Obs.Trace.to_chrome_json () in
  let oc = open_out "TRACE_sample.json" in
  output_string oc sample;
  close_out oc;
  row "  wrote TRACE_sample.json (%d spans)\n" (List.length (Obs.Trace.spans ()));
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-obs\",\n  \"rw_iters\": %d,\n  \"send_iters\": \
     %d,\n  \"workload\": \"E-oltp wide class (100 attrs, slot layout); \
     disabled overhead derived as gate_ns x gates / op_ns; enabled overhead \
     measured best-of-3\",\n  \"gate_ns\": %.3f,\n  \
     \"disabled_overhead_pct\": {\"get\": %.4f, \"set\": %.4f, \"send\": \
     %.4f},\n  \"noise_floor_pct\": {\"get\": %.2f, \"set\": %.2f, \"send\": \
     %.2f},\n  \"metrics_on_overhead_pct\": {\"get\": %.2f, \"set\": %.2f, \
     \"send\": %.2f},\n  \"trace_on_overhead_pct\": {\"get\": %.2f, \"set\": \
     %.2f, \"send\": %.2f},\n  \"rows\": [\n\
    \    {\"mode\": \"off\", \"get_ops_per_sec\": %.0f, \"set_ops_per_sec\": \
     %.0f, \"send_ops_per_sec\": %.0f},\n\
    \    {\"mode\": \"metrics\", \"get_ops_per_sec\": %.0f, \
     \"set_ops_per_sec\": %.0f, \"send_ops_per_sec\": %.0f},\n\
    \    {\"mode\": \"trace\", \"get_ops_per_sec\": %.0f, \
     \"set_ops_per_sec\": %.0f, \"send_ops_per_sec\": %.0f}\n  ]\n}\n"
    iters send_iters gate_ns dg ds dd (noise g0 g1) (noise s0 s1) (noise d0 d1)
    (enabled g0 gm) (enabled s0 sm) (enabled d0 dm) (enabled g0 gt)
    (enabled s0 st) (enabled d0 dt) g0 s0 d0 gm sm dm gt st dt;
  close_out oc;
  row "  wrote BENCH_obs.json\n";
  (* CI regression gate (smoke runs only): the disabled instrumentation must
     stay within the 2%% budget on every hot operation. *)
  if smoke then begin
    if dg > 2. || ds > 2. || dd > 2. then begin
      row "  FAIL: derived disabled overhead exceeds 2%% \
           (get %.3f%%, set %.3f%%, send %.3f%%)\n" dg ds dd;
      exit 1
    end
    else row "  bench-smoke gate: disabled overhead <= 2%% on get/set/send (ok)\n"
  end

(* ------------------------------------------------------------------------- *)
(* E-chaos: the price of supervision, restart latency, flood accounting      *)
(* ------------------------------------------------------------------------- *)

(* Three questions about the supervised shard pool: what the watchdog and
   the bounded-inbox accounting cost on the happy path (supervised vs plain
   throughput, best-of-3 to shave scheduler noise), how fast a killed shard
   is back (detection + teardown + fresh init, median of repeated kills),
   and whether the flood counters stay honest under overload (every post is
   accepted, shed, or parked — none unaccounted). *)
let e_chaos () =
  header "E-chaos: shard supervision overhead, restart latency, flood accounting";
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  let iters = if smoke then 20_000 else 100_000 in
  let cores = Domain.recommended_domain_count () in
  let init _pool _i =
    let db = Db.create () in
    Workloads.Payroll.install db;
    let sys = System.create db in
    System.register_action sys "noop" (fun _ _ -> ());
    ignore
      (System.create_rule sys ~name:"watch" ~monitor_classes:[ "employee" ]
         ~event:(Expr.eom ~cls:"employee" "set_salary")
         ~condition:"true" ~action:"noop" ());
    sys
  in
  let eps ~supervised =
    let supervision =
      if supervised then Some Sentinel.Shard_pool.default_supervision
      else None
    in
    let pool = Sentinel.Shard_pool.create ~shards:2 ?supervision ~init () in
    let objs =
      Array.concat
        (List.init 2 (fun i ->
             match
               Sentinel.Shard_pool.run_on pool i (fun sys ->
                   Array.init 128 (fun _ ->
                       Db.new_object (System.db sys) "employee"))
             with
             | Ok a -> a
             | Error e -> raise e))
    in
    let args = [ Value.Float 1. ] in
    let (), ms =
      time_ms (fun () ->
          for k = 0 to iters - 1 do
            ignore
              (Sentinel.Shard_pool.post pool objs.(k land 255) "set_salary"
                 args)
          done;
          Sentinel.Shard_pool.drain pool)
    in
    Sentinel.Shard_pool.stop pool;
    float_of_int iters /. (ms /. 1000.)
  in
  let best f = max (f ()) (max (f ()) (f ())) in
  let plain = best (fun () -> eps ~supervised:false) in
  let supervised = best (fun () -> eps ~supervised:true) in
  let ratio = supervised /. plain in
  row "  shards=2 plain      %10.0f ev/s (best of 3)\n" plain;
  row "  shards=2 supervised %10.0f ev/s (best of 3, %.2fx)\n" supervised
    ratio;
  (* restart latency: kill -> heartbeat detects the dead worker -> teardown
     -> fresh init -> ready.  Median of 5 kills. *)
  let restart_ms =
    let pool =
      Sentinel.Shard_pool.create ~shards:2
        ~supervision:
          {
            Sentinel.Shard_pool.default_supervision with
            heartbeat_interval_ms = 2;
            (* repeated deliberate kills must not exhaust the budget and
               degrade the shard mid-measurement *)
            max_restarts = 100;
          }
        ~init ()
    in
    let kills = 5 in
    let samples =
      Array.init kills (fun k ->
          let t0 = Obs.Clock.now_ns () in
          (match Sentinel.Shard_pool.kill pool 0 with
          | Ok () -> ()
          | Error e ->
            failwith (Sentinel.Shard_pool.error_to_string e));
          let rec wait () =
            let st = Sentinel.Shard_pool.stats pool in
            if
              st.Sentinel.Shard_pool.shard_restarts.(0) >= k + 1
              && Sentinel.Shard_pool.shard_state pool 0 = `Ready
            then ()
            else begin
              Unix.sleepf 0.0005;
              wait ()
            end
          in
          wait ();
          (Obs.Clock.now_ns () -. t0) /. 1e6)
    in
    Sentinel.Shard_pool.drain pool;
    Sentinel.Shard_pool.stop pool;
    Array.sort compare samples;
    samples.(kills / 2)
  in
  row "  restart latency (kill -> ready, median of 5): %.1f ms\n" restart_ms;
  (* flood accounting: hold the worker, overflow a bounded inbox, and check
     the books — posted = accepted + shed, and every accepted job runs *)
  let flood_posted = 10_000 in
  let accepted, shed_count, ran =
    let pool =
      Sentinel.Shard_pool.create ~shards:2 ~inbox_capacity:256
        ~backpressure:Sentinel.Shard_pool.Shed_newest ~init ()
    in
    let gate = Atomic.make false in
    (match
       Sentinel.Shard_pool.post_on pool 0 (fun _ ->
           while not (Atomic.get gate) do
             Domain.cpu_relax ()
           done)
     with
    | Ok () -> ()
    | Error e -> failwith (Sentinel.Shard_pool.error_to_string e));
    let ran = Atomic.make 0 in
    let accepted = ref 0 and shed = ref 0 in
    for _ = 1 to flood_posted do
      match Sentinel.Shard_pool.post_on pool 0 (fun _ -> Atomic.incr ran) with
      | Ok () -> incr accepted
      | Error _ -> incr shed
    done;
    Atomic.set gate true;
    Sentinel.Shard_pool.drain pool;
    let st = Sentinel.Shard_pool.stats pool in
    Sentinel.Shard_pool.stop pool;
    ignore st;
    (!accepted, !shed, Atomic.get ran)
  in
  row "  flood: %d posted = %d accepted + %d shed; %d accepted jobs ran\n"
    flood_posted accepted shed_count ran;
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-chaos\",\n  \"cores\": %d,\n  \"send_iters\": \
     %d,\n  \"plain_events_per_sec\": %.0f,\n  \
     \"supervised_events_per_sec\": %.0f,\n  \
     \"supervision_overhead_ratio\": %.3f,\n  \"restart_ms\": %.1f,\n  \
     \"flood\": {\"posted\": %d, \"accepted\": %d, \"shed\": %d, \"ran\": \
     %d}\n}\n"
    cores iters plain supervised ratio restart_ms flood_posted accepted
    shed_count ran;
  close_out oc;
  row "  wrote BENCH_chaos.json\n";
  if smoke then begin
    if accepted + shed_count <> flood_posted || ran <> accepted then begin
      row "  FAIL: flood accounting leaked jobs (%d posted, %d accepted, \
           %d shed, %d ran)\n"
        flood_posted accepted shed_count ran;
      exit 1
    end
    else row "  bench-smoke gate: flood accounting exact (ok)\n";
    if restart_ms > 1_000. then begin
      row "  FAIL: restart latency %.1f ms exceeds 1000 ms\n" restart_ms;
      exit 1
    end
    else row "  bench-smoke gate: restart under a second (ok)\n";
    if cores >= 2 then begin
      if ratio < 0.90 then begin
        row "  FAIL: supervised throughput %.2fx of plain (floor 0.90)\n"
          ratio;
        exit 1
      end
      else
        row "  bench-smoke gate: supervision overhead within 10%% (ok)\n"
    end
    else
      row "  bench-smoke gate: supervision overhead not gated on %d core\n"
        cores
  end

(* ------------------------------------------------------------------------- *)
(* E-ingest: batched ingestion pipeline                                       *)
(* ------------------------------------------------------------------------- *)

(* The batching claim: one transaction scope, one observability envelope,
   one WAL commit (+fsync), one route-key probe per distinct key and — across
   shards — one mailbox push per destination, amortized over the whole
   batch; the differential suite (test/test_ingest.ml) proves the semantics
   are untouched.  Cells are batch={1,8,64,256} x shards={1,2,4} over the
   seeded stock_market tick feed, every shard journaling fsync-per-commit
   like a durable streaming ingester.  Under BENCH_SMOKE the batch=64
   amortization and the cross-shard push coalescing are regression gates. *)
let e_ingest () =
  header
    "E-ingest: batched ingestion (vectorized send, route coalescing, \
     cross-shard flush)";
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  let events = if smoke then 2_048 else 16_384 in
  let tickers = 64 in
  let run ~shards ~batch =
    let paths =
      Array.init shards (fun _ -> Filename.temp_file "sentinel_ingest" ".wal")
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
      (fun () ->
        let fired = Array.init shards (fun _ -> Atomic.make 0) in
        let pool =
          (* fsync-per-commit consumers drain slowly at batch=1: block on a
             full inbox for as long as it takes rather than shedding the
             measured workload *)
          Sentinel.Shard_pool.create ~shards
            ~backpressure:(Block { max_wait_ms = 600_000 })
            ~init:(fun _ i ->
              let db = Db.create () in
              Workloads.Stock_market.install db;
              let sys = System.create db in
              ignore (System.attach_wal ~sync:true sys paths.(i));
              System.register_action sys "count" (fun _ _ ->
                  Atomic.incr fired.(i));
              ignore
                (System.create_rule sys ~name:"price-watch"
                   ~monitor_classes:[ Workloads.Stock_market.stock_class ]
                   ~event:
                     (Expr.eom ~cls:Workloads.Stock_market.stock_class
                        "set_price")
                   ~condition:"true" ~action:"count" ());
              sys)
            ()
        in
        let per = max 1 (tickers / shards) in
        let markets =
          List.init shards (fun i ->
              match
                Sentinel.Shard_pool.run_on pool i (fun sys ->
                    Workloads.Stock_market.populate (System.db sys)
                      (Prng.create (11 + i))
                      ~stocks:per ~indexes:0 ~portfolios:0)
              with
              | Ok m -> m
              | Error e -> raise e)
        in
        let market =
          {
            Workloads.Stock_market.stocks =
              Array.concat
                (List.map
                   (fun m -> m.Workloads.Stock_market.stocks)
                   markets);
            indexes = [||];
            portfolios = [||];
          }
        in
        let n_tickers = Array.length market.Workloads.Stock_market.stocks in
        let n_batches = max 1 (events / batch) in
        let feed =
          Workloads.Stock_market.tick_batches (Prng.create 17) market
            ~tickers:n_tickers ~rate:batch ~batches:n_batches
        in
        let total = n_batches * batch in
        let (), ms =
          time_ms (fun () ->
              List.iter
                (fun evs ->
                  match Sentinel.Shard_pool.ingest pool evs with
                  | Ok () -> ()
                  | Error e ->
                    failwith (Sentinel.Shard_pool.error_to_string e))
                feed;
              Sentinel.Shard_pool.drain pool)
        in
        let st = Sentinel.Shard_pool.stats pool in
        let coalesced = ref 0 and fsyncs = ref 0 in
        for i = 0 to shards - 1 do
          let s = System.stats (Sentinel.Shard_pool.system pool i) in
          coalesced := !coalesced + s.System.coalesced_probes;
          fsyncs := !fsyncs + s.System.wal_fsyncs;
          match
            Sentinel.Shard_pool.run_on pool i (fun sys ->
                System.detach_wal sys)
          with
          | Ok () -> ()
          | Error e -> raise e
        done;
        let failed =
          Array.fold_left ( + ) 0 st.Sentinel.Shard_pool.shard_failed
        in
        Sentinel.Shard_pool.stop pool;
        (* in-bench parity smoke: exactly one firing per event, no contained
           failures — the cheap shadow of the differential suite *)
        let total_fired =
          Array.fold_left (fun a c -> a + Atomic.get c) 0 fired
        in
        if failed <> 0 || total_fired <> total then
          failwith
            (Printf.sprintf
               "E-ingest parity: %d fired / %d failed for %d events"
               total_fired failed total);
        ( float_of_int total /. (ms /. 1000.),
          !coalesced,
          st.Sentinel.Shard_pool.mpsc_pushes,
          !fsyncs,
          total ))
  in
  row "  %6s %6s  %12s  %10s  %10s  %8s  %8s\n" "shards" "batch" "ev/s"
    "vs batch=1" "coalesced" "pushes" "fsyncs";
  let cells =
    List.concat_map
      (fun shards ->
        let rows =
          List.map
            (fun batch ->
              let eps, coalesced, pushes, fsyncs, total =
                run ~shards ~batch
              in
              (shards, batch, eps, coalesced, pushes, fsyncs, total))
            [ 1; 8; 64; 256 ]
        in
        let base =
          match rows with (_, _, eps, _, _, _, _) :: _ -> eps | [] -> 1.
        in
        List.iter
          (fun (_, batch, eps, coalesced, pushes, fsyncs, _) ->
            row "  %6d %6d  %12.0f  %9.2fx  %10d  %8d  %8d\n" shards batch
              eps (eps /. base) coalesced pushes fsyncs)
          rows;
        rows)
      [ 1; 2; 4 ]
  in
  let eps_of shards batch =
    List.find_map
      (fun (s, b, eps, _, _, _, _) ->
        if s = shards && b = batch then Some eps else None)
      cells
    |> Option.get
  in
  let pushes_of shards batch =
    List.find_map
      (fun (s, b, _, _, pushes, _, _) ->
        if s = shards && b = batch then Some pushes else None)
      cells
    |> Option.get
  in
  let oc = open_out "BENCH_ingest.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-ingest\",\n  \"events\": %d,\n  \"tickers\": \
     %d,\n  \"workload\": \"stock_market tick batches (seeded PRNG), one \
     reactive set_price rule per shard, per-shard WAL attached \
     fsync-per-commit; Shard_pool.ingest = one transaction + one trace + \
     one route-coalescing scope per shard sub-batch, flushed as one \
     mailbox message per destination\",\n  \"rows\": [\n"
    events tickers;
  List.iteri
    (fun i (shards, batch, eps, coalesced, pushes, fsyncs, total) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"batch\": %d, \"events\": %d, \
         \"events_per_sec\": %.0f, \"speedup_vs_batch1\": %.2f, \
         \"coalesced_probes\": %d, \"mpsc_pushes\": %d, \"fsyncs\": %d}%s\n"
        shards batch total eps
        (eps /. eps_of shards 1)
        coalesced pushes fsyncs
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  row "  wrote BENCH_ingest.json\n";
  if smoke then begin
    (* the tentpole acceptance gate: batching must amortize the per-event
       fixed costs at least 3x on one shard *)
    let b1 = eps_of 1 1 and b64 = eps_of 1 64 in
    if b64 < 3. *. b1 then begin
      row "  FAIL: batch=64 ingest %.0f ev/s below 3x batch=1 %.0f ev/s\n"
        b64 b1;
      exit 1
    end
    else
      row "  bench-smoke gate: batch=64 >= 3x batch=1 on one shard (%.1fx, \
           ok)\n"
        (b64 /. b1);
    (* and the cross-shard flush must coalesce mailbox traffic >= 8x *)
    let p1 = pushes_of 4 1 and p64 = pushes_of 4 64 in
    if p1 < 8 * p64 then begin
      row "  FAIL: batch=64 mailbox pushes %d not >= 8x fewer than batch=1 \
           %d\n"
        p64 p1;
      exit 1
    end
    else
      row "  bench-smoke gate: cross-shard pushes coalesced %dx at batch=64 \
           (ok)\n"
        (p1 / max 1 p64)
  end

(* ------------------------------------------------------------------------- *)
(* E-net: streaming ingestion over the wire protocol — a TCP server fronting
   the pool, a fleet of protocol clients, and the slow-consumer books        *)
(* ------------------------------------------------------------------------- *)

let e_net () =
  header "E-net: wire-protocol streaming ingestion (clients x batch x shards)";
  let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None in
  let events = if smoke then 2_048 else 12_288 in
  let tickers = 64 in
  let run ~shards ~clients ~batch =
    let paths =
      Array.init shards (fun _ -> Filename.temp_file "sentinel_net" ".wal")
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
      (fun () ->
        let fired = Array.init shards (fun _ -> Atomic.make 0) in
        let pool =
          (* group-commit journal + the pool's durability hook: a shard
             seals (and fsyncs) whenever its mailbox drains, so a lone
             serial client pays one fsync per flush while a concurrent
             fleet shares one fsync per drained backlog — the axis the
             16-client gate measures *)
          Sentinel.Shard_pool.create ~shards
            ~backpressure:(Block { max_wait_ms = 600_000 })
            ~on_idle:(fun _ sys ->
              match System.wal sys with
              | Some _ ->
                (* commit delay: linger before sealing so a concurrent
                   fleet's staggered arrivals pile up behind one fsync;
                   a lone serial client just pays the window *)
                (try Unix.sleepf 0.0003 with Unix.Unix_error _ -> ());
                System.sync_wal sys
              | None -> ())
            ~init:(fun _ i ->
              let db = Db.create () in
              Workloads.Stock_market.install db;
              let sys = System.create db in
              ignore
                (System.attach_wal ~sync:true
                   ~group_commit:
                     { Oodb.Wal.max_batch = 256; max_wait_us = 50_000 }
                   sys paths.(i));
              System.register_action sys "count" (fun _ _ ->
                  Atomic.incr fired.(i));
              ignore
                (System.create_rule sys ~name:"price-watch"
                   ~monitor_classes:[ Workloads.Stock_market.stock_class ]
                   ~event:
                     (Expr.eom ~cls:Workloads.Stock_market.stock_class
                        "set_price")
                   ~condition:"true" ~action:"count" ());
              sys)
            ()
        in
        let per = max 1 (tickers / shards) in
        let markets =
          List.init shards (fun i ->
              match
                Sentinel.Shard_pool.run_on pool i (fun sys ->
                    Workloads.Stock_market.populate (System.db sys)
                      (Prng.create (31 + i))
                      ~stocks:per ~indexes:0 ~portfolios:0)
              with
              | Ok m -> m
              | Error e -> raise e)
        in
        let market =
          {
            Workloads.Stock_market.stocks =
              Array.concat
                (List.map
                   (fun m -> m.Workloads.Stock_market.stocks)
                   markets);
            indexes = [||];
            portfolios = [||];
          }
        in
        let n_tickers = Array.length market.Workloads.Stock_market.stocks in
        let server = Net.Server.create ~pool () in
        let port = Net.Server.port server in
        let per_client = max 1 (events / clients) in
        let n_batches = max 1 (per_client / batch) in
        let total = clients * n_batches * batch in
        let rtt_sum = Array.make clients 0. in
        let rtt_n = Array.make clients 0 in
        let worker k () =
          let client =
            Net.Sentinel_client.connect
              ~client_name:(Printf.sprintf "bench-%d" k)
              ~buffer_max:(batch + 1) ~host:"127.0.0.1" ~port ()
          in
          Fun.protect
            ~finally:(fun () -> Net.Sentinel_client.close client)
            (fun () ->
              let feed =
                Workloads.Stock_market.tick_batches
                  (Prng.create (101 + k))
                  market ~tickers:n_tickers ~rate:batch ~batches:n_batches
              in
              List.iter
                (fun evs ->
                  List.iter (Net.Sentinel_client.send client) evs;
                  let t0 = Unix.gettimeofday () in
                  ignore (Net.Sentinel_client.flush client);
                  rtt_sum.(k) <- rtt_sum.(k) +. (Unix.gettimeofday () -. t0);
                  rtt_n.(k) <- rtt_n.(k) + 1)
                feed)
        in
        let (), ms =
          time_ms (fun () ->
              let threads =
                List.init clients (fun k -> Thread.create (worker k) ())
              in
              List.iter Thread.join threads;
              Sentinel.Shard_pool.drain pool)
        in
        let st = Net.Server.stats server in
        Net.Server.stop server;
        for i = 0 to shards - 1 do
          match
            Sentinel.Shard_pool.run_on pool i (fun sys ->
                System.detach_wal sys)
          with
          | Ok () -> ()
          | Error e -> raise e
        done;
        Sentinel.Shard_pool.stop pool;
        (* wire parity: every event sent was acked, ingested and fired its
           rule exactly once — the cheap shadow of the differential suite *)
        let total_fired =
          Array.fold_left (fun a c -> a + Atomic.get c) 0 fired
        in
        if total_fired <> total || st.Net.Server.events_ingested <> total then
          failwith
            (Printf.sprintf
               "E-net parity: %d fired / %d ingested for %d events sent"
               total_fired st.Net.Server.events_ingested total);
        let rtt_ms =
          let s = Array.fold_left ( +. ) 0. rtt_sum in
          let n = Array.fold_left ( + ) 0 rtt_n in
          1000. *. s /. float_of_int (max 1 n)
        in
        (float_of_int total /. (ms /. 1000.), rtt_ms, total))
  in
  row "  %6s %7s %6s  %12s  %11s  %10s\n" "shards" "clients" "batch" "ev/s"
    "vs 1-client" "flush-rtt";
  let cells =
    List.concat_map
      (fun shards ->
        List.concat_map
          (fun batch ->
            let rows =
              List.map
                (fun clients ->
                  let eps, rtt, total = run ~shards ~clients ~batch in
                  (shards, clients, batch, eps, rtt, total))
                [ 1; 4; 16 ]
            in
            let base =
              match rows with (_, _, _, eps, _, _) :: _ -> eps | [] -> 1.
            in
            List.iter
              (fun (shards, clients, batch, eps, rtt, _) ->
                row "  %6d %7d %6d  %12.0f  %10.2fx  %10s\n" shards clients
                  batch eps (eps /. base) (fmt_ms rtt))
              rows;
            rows)
          [ 1; 64 ])
      [ 1; 4 ]
  in
  (* slow-consumer mini-run: a raw subscriber that never reads its socket
     against a tiny outlet — the shed books must balance exactly *)
  let shed_run () =
    let pool =
      Sentinel.Shard_pool.create ~shards:2
        ~init:(fun _ _ ->
          let db = Db.create () in
          Workloads.Stock_market.install db;
          System.create db)
        ()
    in
    Fun.protect
      ~finally:(fun () -> Sentinel.Shard_pool.stop pool)
      (fun () ->
        let markets =
          List.init 2 (fun i ->
              match
                Sentinel.Shard_pool.run_on pool i (fun sys ->
                    Workloads.Stock_market.populate (System.db sys)
                      (Prng.create (41 + i))
                      ~stocks:8 ~indexes:0 ~portfolios:0)
              with
              | Ok m -> m
              | Error e -> raise e)
        in
        let market =
          {
            Workloads.Stock_market.stocks =
              Array.concat
                (List.map
                   (fun m -> m.Workloads.Stock_market.stocks)
                   markets);
            indexes = [||];
            portfolios = [||];
          }
        in
        let server =
          Net.Server.create ~outlet_capacity:4
            ~outlet_policy:Sentinel.Shard_pool.Shed_newest ~so_sndbuf:4096
            ~pool ()
        in
        Fun.protect
          ~finally:(fun () -> Net.Server.stop server)
          (fun () ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
                Unix.connect fd
                  (Unix.ADDR_INET
                     ( Unix.inet_addr_of_string "127.0.0.1",
                       Net.Server.port server ));
                ignore
                  (Net.Frame.write_fd fd
                     (Net.Frame.Hello
                        {
                          version = Net.Frame.version;
                          client = "bench-lazy";
                        }));
                (match Net.Frame.read_fd fd with
                | Net.Frame.Hello_ack _, _ -> ()
                | _ -> failwith "E-net shed: expected Hello_ack");
                ignore
                  (Net.Frame.write_fd fd
                     (Net.Frame.Subscribe
                        {
                          name = "bench-lazy";
                          classes = [ Workloads.Stock_market.stock_class ];
                          expr =
                            Events.Codec.encode
                              (Expr.eom
                                 ~cls:Workloads.Stock_market.stock_class
                                 "set_price");
                        }));
                (match Net.Frame.read_fd fd with
                | Net.Frame.Sub_ack _, _ -> ()
                | _ -> failwith "E-net shed: expected Sub_ack");
                (* bury the non-reading subscriber in notifications *)
                let feed =
                  Workloads.Stock_market.tick_batches (Prng.create 5) market
                    ~tickers:16 ~rate:100 ~batches:40
                in
                List.iter
                  (fun evs ->
                    match Sentinel.Shard_pool.ingest pool evs with
                    | Ok () -> ()
                    | Error e ->
                      failwith (Sentinel.Shard_pool.error_to_string e))
                  feed;
                Sentinel.Shard_pool.drain pool;
                let deadline = Unix.gettimeofday () +. 5. in
                let rec wait () =
                  let s = Net.Server.stats server in
                  if
                    s.Net.Server.notifications_produced
                    = s.Net.Server.notifications_enqueued
                      + s.Net.Server.notifications_shed
                      + s.Net.Server.notifications_parked
                    && s.Net.Server.notifications_produced = 4_000
                  then s
                  else if Unix.gettimeofday () > deadline then s
                  else begin
                    Thread.delay 0.01;
                    wait ()
                  end
                in
                let s = wait () in
                ( s.Net.Server.notifications_produced,
                  s.Net.Server.notifications_enqueued,
                  s.Net.Server.notifications_shed,
                  s.Net.Server.notifications_parked ))))
  in
  let produced, enqueued, shed, parked = shed_run () in
  let exact = produced = enqueued + shed + parked in
  row "  slow consumer: produced %d = enqueued %d + shed %d + parked %d (%s)\n"
    produced enqueued shed parked
    (if exact then "exact" else "LEAK");
  let eps_of shards clients batch =
    List.find_map
      (fun (s, c, b, eps, _, _) ->
        if s = shards && c = clients && b = batch then Some eps else None)
      cells
    |> Option.get
  in
  let oc = open_out "BENCH_net.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E-net\",\n  \"events\": %d,\n  \"tickers\": %d,\n\
    \  \"workload\": \"stock_market tick batches (seeded PRNG) sent by N \
     concurrent protocol clients over TCP to one server fronting an \
     N-shard pool, per-shard WAL attached fsync-per-commit, one reactive \
     set_price rule per shard; each client flush = one Send_many frame = \
     one partitioned cross-shard ingest, RTT measured per flush\",\n\
    \  \"rows\": [\n"
    events tickers;
  List.iteri
    (fun i (shards, clients, batch, eps, rtt, total) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"clients\": %d, \"batch\": %d, \"events\": \
         %d, \"events_per_sec\": %.0f, \"flush_rtt_ms\": %.3f, \
         \"speedup_vs_1client\": %.2f}%s\n"
        shards clients batch total eps rtt
        (eps /. eps_of shards 1 batch)
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.fprintf oc
    "  ],\n\
    \  \"shed_accounting\": {\"produced\": %d, \"enqueued\": %d, \"shed\": \
     %d, \"parked\": %d, \"exact\": %b}\n\
     }\n"
    produced enqueued shed parked exact;
  close_out oc;
  row "  wrote BENCH_net.json\n";
  if smoke then begin
    (* gate 1: a client fleet must actually pipeline — 16 clients at
       batch=1 on the 4-shard pool >= 2x one RTT-bound client *)
    let c1 = eps_of 4 1 1 and c16 = eps_of 4 16 1 in
    if c16 < 2. *. c1 then begin
      row "  FAIL: 16 clients %.0f ev/s below 2x 1 client %.0f ev/s\n" c16 c1;
      exit 1
    end
    else
      row "  bench-smoke gate: 16 clients >= 2x 1 client at batch=1, 4 \
           shards (%.1fx, ok)\n"
        (c16 /. c1);
    (* gate 2: the slow-consumer books must balance to the notification *)
    if (not exact) || shed = 0 then begin
      row "  FAIL: shed accounting produced %d <> enqueued %d + shed %d + \
           parked %d (or nothing shed)\n"
        produced enqueued shed parked;
      exit 1
    end
    else
      row "  bench-smoke gate: slow-consumer shed accounting exact (%d shed, \
           ok)\n"
        shed
  end

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e12", e12); ("e13", e13); ("e14", e14);
    ("routing", e_routing);
    ("oltp", e_oltp);
    ("recovery", e_recovery);
    ("containment", e_containment);
    ("obs", e_obs);
    ("chaos", e_chaos);
    ("ingest", e_ingest);
    ("net", e_net);
  ]

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) ->
      List.filter (fun (name, _) -> List.mem name names) experiments
    | _ -> experiments
  in
  if selected = [] then begin
    prerr_endline "unknown experiment; available:";
    List.iter (fun (name, _) -> prerr_endline ("  " ^ name)) experiments;
    exit 1
  end;
  print_endline "Sentinel reproduction benchmarks (see EXPERIMENTS.md)";
  List.iter (fun (_, f) -> f ()) selected;
  print_newline ()

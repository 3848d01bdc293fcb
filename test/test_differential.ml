(* Differential testing: for the rule shapes that both engines can express
   — class-level rules on single primitive events with stateless conditions
   — Sentinel (subscription dispatch) and ADAM (centralized scan) must make
   identical firing decisions on identical workloads.  The architectures
   differ; the semantics must not. *)

open Helpers
module Prng = Workloads.Prng

(* A random workload: n messages over a small population of employees and
   managers, each message one of the reactive methods. *)
type spec = {
  sp_seed : int;
  sp_rules : (string * string * Oodb.Types.modifier) list;
      (* active_class, method, modifier *)
  sp_ops : int;
}

let spec_gen =
  let open QCheck2.Gen in
  let rule_gen =
    let* cls = oneofl [ "employee"; "manager" ] in
    let* meth = oneofl [ "set_salary"; "change_income"; "get_age" ] in
    let* modifier = oneofl [ Oodb.Types.Before; Oodb.Types.After ] in
    return (cls, meth, modifier)
  in
  let* sp_seed = int_bound 10_000 in
  let* sp_rules = list_size (int_range 1 6) rule_gen in
  let* sp_ops = int_range 10 200 in
  return { sp_seed; sp_rules; sp_ops }

let build_population db rng =
  let pop = Workloads.Payroll.populate db rng ~managers:3 ~employees:10 in
  Array.append pop.managers pop.employees

let run_ops db rng objs n =
  for _ = 1 to n do
    let target = Prng.choice rng objs in
    match Prng.int rng 3 with
    | 0 -> ignore (Db.send db target "set_salary" [ Value.Float (Prng.float rng 100.) ])
    | 1 ->
      ignore (Db.send db target "change_income" [ Value.Float (Prng.float rng 100.) ])
    | _ -> ignore (Db.send db target "get_age" [])
  done

(* Events only fire for interface-listed (method, modifier) pairs; both
   engines see the same stream, so rules on non-generating pairs fire zero
   times in both. *)

let sentinel_counts spec =
  let db = employee_db () in
  let sys = System.create db in
  let counts = List.map (fun _ -> ref 0) spec.sp_rules in
  List.iteri
    (fun i (cls, meth, modifier) ->
      let cell = List.nth counts i in
      System.register_action sys (Printf.sprintf "count-%d" i) (fun _ _ -> incr cell);
      ignore
        (System.create_rule sys
           ~name:(Printf.sprintf "r%d" i)
           ~monitor_classes:[ cls ]
           ~event:(Expr.prim ~cls modifier meth)
           ~condition:"true"
           ~action:(Printf.sprintf "count-%d" i)
           ()))
    spec.sp_rules;
  let rng = Prng.create spec.sp_seed in
  let objs = build_population db rng in
  run_ops db rng objs spec.sp_ops;
  List.map (fun r -> !r) counts

let adam_counts spec =
  let db = employee_db () in
  let adam = Baselines.Adam.create db in
  let rules =
    List.mapi
      (fun i (cls, meth, modifier) ->
        Baselines.Adam.add_rule adam
          ~name:(Printf.sprintf "r%d" i)
          ~active_class:cls ~meth ~modifier
          ~condition:(fun _ _ -> true)
          ~action:(fun _ _ -> ())
          ())
      spec.sp_rules
  in
  let rng = Prng.create spec.sp_seed in
  let objs = build_population db rng in
  run_ops db rng objs spec.sp_ops;
  List.map Baselines.Adam.fired rules

let prop_engines_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sentinel and adam fire identically" ~count:100
       spec_gen (fun spec -> sentinel_counts spec = adam_counts spec))

(* And a pinned concrete case so a property-shrink failure has a readable
   sibling. *)
let test_concrete_agreement () =
  let spec =
    {
      sp_seed = 7;
      sp_rules =
        [
          ("employee", "set_salary", Oodb.Types.After);
          ("manager", "set_salary", Oodb.Types.After);
          ("employee", "get_age", Oodb.Types.Before);
          ("employee", "set_salary", Oodb.Types.Before); (* never generated *)
        ];
      sp_ops = 500;
    }
  in
  let s = sentinel_counts spec and a = adam_counts spec in
  Alcotest.(check (list int)) "identical firing counts" a s;
  (* sanity: the workload actually fired things *)
  Alcotest.(check bool) "non-trivial" true (List.exists (fun c -> c > 0) s);
  (* bom set_salary is not in the event interface: both silent *)
  Alcotest.(check int) "non-generating pair silent" 0 (List.nth s 3)

(* --- indexed vs broadcast routing ---------------------------------------- *)

(* The discrimination index (System.Indexed, the default) must make exactly
   the same detection decisions as the legacy per-consumer broadcast path:
   identical triggered/fired counts, identical signalled instances
   (constituents and timestamps), and identical occurrence streams at ad-hoc
   handlers — across all four parameter contexts, composite operators,
   class- and instance-level subscriptions, and enable/disable churn. *)

module Context = Events.Context

type rrule = {
  rr_monitor : [ `Class of string | `Inst of int ];
  rr_shape : int;  (* picks the operator shape below *)
  rr_prims : (string * Oodb.Types.modifier) list;  (* three constituents *)
}

type rspec = {
  rs_seed : int;
  rs_context : Context.t;
  rs_rules : rrule list;
  rs_ops : int;
}

let routing_spec_gen =
  let open QCheck2.Gen in
  let prim_gen =
    let* meth = oneofl [ "set_salary"; "change_income"; "get_age"; "get_salary" ] in
    let* modifier = oneofl [ Oodb.Types.Before; Oodb.Types.After ] in
    return (meth, modifier)
  in
  let rule_gen =
    let* rr_monitor =
      oneofl [ `Class "employee"; `Class "manager"; `Inst 0; `Inst 5 ]
    in
    let* rr_shape = int_bound 6 in
    let* rr_prims = list_size (return 3) prim_gen in
    return { rr_monitor; rr_shape; rr_prims }
  in
  let* rs_seed = int_bound 10_000 in
  let* rs_context = oneofl Context.all in
  let* rs_rules = list_size (int_range 1 8) rule_gen in
  let* rs_ops = int_range 20 150 in
  return { rs_seed; rs_context; rs_rules; rs_ops }

let routing_event cls r =
  let p (m, md) = Expr.prim ~cls md m in
  match r.rr_prims with
  | [ a; b; c ] -> (
    match r.rr_shape mod 7 with
    | 0 -> p a
    | 1 -> Expr.seq (p a) (p b)
    | 2 -> Expr.conj (p a) (p b)
    | 3 -> Expr.disj (p a) (p b)
    | 4 -> Expr.any 2 [ p a; p b; p c ]
    | 5 -> Expr.not_between (p a) (p b) (p c)
    | _ ->
      let m, md = a in
      Expr.prim ~cls
        ~filters:
          [ { Expr.pf_index = 0; pf_cmp = Expr.Cgt; pf_value = Value.Float 50. } ]
        md m)
  | _ -> assert false

let routing_run routing spec =
  let db = employee_db () in
  let sys = System.create ~routing db in
  let rng = Prng.create spec.rs_seed in
  let objs = build_population db rng in
  let shapes : (int, (string * int) list list) Hashtbl.t = Hashtbl.create 8 in
  let oids =
    List.mapi
      (fun i r ->
        let action = Printf.sprintf "shape-%d" i in
        System.register_action sys action (fun _ inst ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt shapes i) in
            Hashtbl.replace shapes i (shape inst :: prev));
        let monitor, monitor_classes =
          match r.rr_monitor with
          | `Class c -> ([], [ c ])
          | `Inst k -> ([ objs.(k mod Array.length objs) ], [])
        in
        System.create_rule sys
          ~name:(Printf.sprintf "r%d" i)
          ~context:spec.rs_context ~monitor ~monitor_classes
          ~event:(routing_event "employee" r)
          ~condition:"true" ~action ())
      spec.rs_rules
  in
  (* an ad-hoc handler over the whole hierarchy: wildcard path in indexed
     mode, plain consumer in broadcast mode *)
  let seen = ref [] in
  let collector = System.create_notifiable sys (fun occ -> seen := occ :: !seen) in
  Db.subscribe_class db ~cls:"employee" ~consumer:collector;
  let rng_ops = Prng.create (spec.rs_seed + 1) in
  (* churn one rule's registration mid-run *)
  let victim = List.nth oids (Prng.int rng_ops (List.length oids)) in
  let third = spec.rs_ops / 3 in
  run_ops db rng_ops objs third;
  System.disable sys victim;
  run_ops db rng_ops objs third;
  System.enable sys victim;
  run_ops db rng_ops objs (spec.rs_ops - (2 * third));
  let per_rule =
    List.mapi
      (fun i oid ->
        let ri = System.rule_info sys oid in
        ( ri.Sentinel.Rule.triggered,
          ri.Sentinel.Rule.fired,
          List.rev (Option.value ~default:[] (Hashtbl.find_opt shapes i)) ))
      oids
  in
  (per_rule, List.rev !seen)

let prop_routing_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"indexed and broadcast routing agree" ~count:60
       routing_spec_gen (fun spec ->
         routing_run System.Indexed spec = routing_run System.Broadcast spec))

(* Pinned sibling covering each parameter context with every operator shape
   and both subscription levels. *)
let test_routing_concrete () =
  let rules =
    [
      { rr_monitor = `Class "employee"; rr_shape = 0;
        rr_prims = [ ("set_salary", Oodb.Types.After); ("get_age", Before); ("get_age", After) ] };
      { rr_monitor = `Class "manager"; rr_shape = 1;
        rr_prims = [ ("set_salary", After); ("change_income", After); ("get_age", After) ] };
      { rr_monitor = `Inst 2; rr_shape = 2;
        rr_prims = [ ("set_salary", After); ("get_age", Before); ("get_age", After) ] };
      { rr_monitor = `Class "employee"; rr_shape = 5;
        rr_prims = [ ("change_income", After); ("get_age", Before); ("set_salary", After) ] };
      { rr_monitor = `Inst 0; rr_shape = 6;
        rr_prims = [ ("set_salary", After); ("set_salary", After); ("set_salary", After) ] };
    ]
  in
  List.iter
    (fun ctx ->
      let spec = { rs_seed = 11; rs_context = ctx; rs_rules = rules; rs_ops = 150 } in
      let pi, ci = routing_run System.Indexed spec
      and pb, cb = routing_run System.Broadcast spec in
      let label fmt = Printf.sprintf fmt (Context.to_string ctx) in
      Alcotest.(check bool) (label "%s: per-rule counts and instances") true (pi = pb);
      Alcotest.(check (list occurrence)) (label "%s: handler stream") cb ci;
      Alcotest.(check bool)
        (label "%s: workload non-trivial") true
        (List.exists (fun (t, _, _) -> t > 0) pi))
    Context.all

(* --- rule churn under both routings ----------------------------------------- *)

(* 2,000 sends with rule churn: every 20th event is a get_salary whose
   class-level "churner" rule retires the oldest rule and creates a new one
   from inside delivery, so deletes and creates land mid-batch when the
   stream goes through System.ingest (every other run of 100 events) and
   between single sends otherwise.  Per-rule triggered and fired counts,
   retired rules included, must not depend on the routing. *)
let churn_run routing =
  let db = employee_db () in
  let sys = System.create ~routing ~retry_backoff:(fun _ -> ()) db in
  let rng = Prng.create 2024 in
  let objs = build_population db rng in
  System.register_action sys "noop" (fun _ _ -> ());
  let live = Queue.create () and retired = ref [] and made = ref 0 in
  let create () =
    incr made;
    let name = Printf.sprintf "churn-%d" !made in
    let o = Prng.choice rng objs in
    let set = Expr.eom ~cls:"employee" "set_salary"
    and income = Expr.eom ~cls:"employee" "change_income" in
    let rule ?monitor ?monitor_classes event =
      System.create_rule sys ~name ?monitor ?monitor_classes ~event ~condition:"true"
        ~action:"noop" ()
    in
    Queue.push
      (match Prng.int rng 3 with
      | 0 -> rule ~monitor:[ o ] set
      | 1 -> rule ~monitor_classes:[ "employee" ] (Expr.seq set income)
      | _ ->
        rule ~monitor:[ o; Prng.choice rng objs ]
          (Expr.conj set (Expr.prim ~cls:"employee" Oodb.Types.Before "get_age")))
      live
  in
  let counts oid =
    let r = System.rule_info sys oid in
    (r.Sentinel.Rule.name, r.Sentinel.Rule.triggered, r.Sentinel.Rule.fired)
  in
  System.register_action sys "churn" (fun _ _ ->
      let old = Queue.pop live in
      retired := (old, counts old) :: !retired;
      System.delete_rule sys old;
      create ());
  let churner =
    System.create_rule sys ~name:"churner" ~monitor_classes:[ "employee" ]
      ~event:(Expr.eom ~cls:"employee" "get_salary")
      ~condition:"true" ~action:"churn" ()
  in
  for _ = 1 to 40 do
    create ()
  done;
  let event k =
    let o = Prng.choice rng objs in
    if k mod 20 = 19 then (o, "get_salary", [])
    else
      match Prng.int rng 3 with
      | 0 -> (o, "set_salary", [ Value.Float (Prng.float rng 100.) ])
      | 1 -> (o, "change_income", [ Value.Float (Prng.float rng 100.) ])
      | _ -> (o, "get_age", [])
  in
  let events = List.init 2000 event in
  List.iteri
    (fun chunk evs ->
      if chunk mod 2 = 0 then
        List.iter (fun (o, m, args) -> ignore (Db.send db o m args)) evs
      else
        match System.ingest sys evs with Ok _ -> () | Error e -> raise e)
    (List.init 20 (fun c -> List.filteri (fun i _ -> i / 100 = c) events));
  let per_rule =
    List.map counts (churner :: List.of_seq (Queue.to_seq live))
    @ List.map snd !retired
    |> List.sort compare
  in
  (* no consumer list names a retired rule *)
  let gone = List.map fst !retired in
  let stale =
    List.filter (fun c -> List.mem c gone)
      (Db.class_consumers_of db "employee"
      @ List.concat_map (Db.consumers_of db) (Array.to_list objs))
  in
  (per_rule, List.length gone, stale, Oodb.Verify.check db)

let test_routing_churn () =
  let pi, ni, si, vi = churn_run System.Indexed
  and pb, nb, sb, vb = churn_run System.Broadcast in
  Alcotest.(check int) "a delete and a create every 20 sends" 100 ni;
  Alcotest.(check int) "same churn under broadcast" ni nb;
  Alcotest.(check bool) "per-rule triggered and fired counts agree" true (pi = pb);
  Alcotest.(check bool) "workload non-trivial" true
    (List.exists (fun (_, _, f) -> f > 0) pi);
  Alcotest.(check (list oid)) "retired rules unsubscribed (indexed)" [] si;
  Alcotest.(check (list oid)) "retired rules unsubscribed (broadcast)" [] sb;
  Alcotest.(check bool) "integrity" true (vi = Ok () && vb = Ok ())

(* --- index upkeep on create and delete ----------------------------------------- *)

let index_pairs db ~cls ~attr = Db.index_pairs db ~cls ~attr |> List.sort compare

(* 1,000 creates and deletes of employees and managers (some rolled back)
   under hash and ordered indexes declared on the superclass, with a third
   index created midway: every index must equal a fresh rebuild. *)
let test_index_upkeep () =
  let db = employee_db () in
  Db.create_index db ~kind:`Hash ~cls:"employee" ~attr:"salary" ();
  Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"age" ();
  let rng = Prng.create 31 in
  let live = ref [] in
  let create () =
    let cls = if Prng.int rng 2 = 0 then "employee" else "manager" in
    Db.new_object db cls
      ~attrs:
        [
          ("age", Value.Int (20 + Prng.int rng 10));
          ("salary", Value.Float (float_of_int (Prng.int rng 7)));
          ("income", Value.Float (float_of_int (Prng.int rng 5)));
        ]
  in
  let indexes = ref [ ("salary", `Hash); ("age", `Ordered) ] in
  for step = 1 to 1000 do
    if step = 500 then begin
      Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"income" ();
      indexes := ("income", `Ordered) :: !indexes
    end;
    let n = List.length !live in
    match Prng.int rng 5 with
    | 0 when n > 0 ->
      let o = List.nth !live (Prng.int rng n) in
      Db.delete_object db o;
      live := List.filter (fun x -> not (Oid.equal x o)) !live
    | 1 when n > 0 ->
      (* a rolled-back create and delete: both undo paths re-index *)
      let o = List.nth !live (Prng.int rng n) in
      Transaction.begin_ db;
      ignore (create ());
      Db.delete_object db o;
      Transaction.abort db
    | 2 when n > 0 ->
      Db.set db (List.nth !live (Prng.int rng n)) "salary"
        (Value.Float (float_of_int (Prng.int rng 7)))
    | _ -> live := create () :: !live
  done;
  List.iter
    (fun (attr, kind) ->
      let maintained = index_pairs db ~cls:"employee" ~attr in
      Db.drop_index db ~cls:"employee" ~attr;
      Db.create_index db ~kind ~cls:"employee" ~attr ();
      let rebuilt = index_pairs db ~cls:"employee" ~attr in
      Alcotest.(check int) (attr ^ ": entry count") (List.length rebuilt)
        (List.length maintained);
      Alcotest.(check bool) (attr ^ ": maintained = rebuilt") true (maintained = rebuilt))
    !indexes;
  Alcotest.(check bool) "objects were live at the end" true (List.length !live > 50)

let suite =
  [
    test "concrete agreement" test_concrete_agreement;
    prop_engines_agree;
    test "indexed and broadcast routing agree (concrete)" test_routing_concrete;
    prop_routing_agree;
    test "indexed and broadcast agree under rule churn" test_routing_churn;
    test "index upkeep on create/delete = rebuild" test_index_upkeep;
  ]

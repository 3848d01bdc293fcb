(* The discrimination index behind System.Indexed routing: registration
   lifecycle (create/enable/disable/delete/rehydrate), generation-stamped
   invalidation of the cached class sets, stale-leaf cleanup, and the
   routing counters. *)

open Helpers
module Route = Events.Route
module Rule = Sentinel.Rule
module Evolution = Oodb.Evolution
module Persist = Oodb.Persist

let route sys = Option.get (System.route_index sys)

let seq_event =
  Expr.seq
    (Expr.eom ~cls:"employee" "set_salary")
    (Expr.eom ~cls:"employee" "change_income")

let test_lifecycle () =
  let db = employee_db () in
  let sys = System.create db in
  Alcotest.(check bool) "indexed by default" true (System.routing sys = System.Indexed);
  let rt = route sys in
  let base = Route.leaf_count rt in
  System.register_action sys "noop" (fun _ _ -> ());
  let r =
    System.create_rule sys ~monitor_classes:[ "employee" ] ~event:seq_event
      ~condition:"true" ~action:"noop" ()
  in
  Alcotest.(check bool) "registered on create" true (Route.registered rt r);
  Alcotest.(check int) "one leaf entry per primitive" (base + 2)
    (Route.leaf_count rt);
  System.disable sys r;
  Alcotest.(check bool) "unregistered on disable" false (Route.registered rt r);
  Alcotest.(check int) "leaves dropped on disable" base (Route.leaf_count rt);
  System.enable sys r;
  Alcotest.(check bool) "re-registered on enable" true (Route.registered rt r);
  Alcotest.(check int) "leaves restored on enable" (base + 2)
    (Route.leaf_count rt);
  (* enable is idempotent: re-registration replaces, not duplicates *)
  System.enable sys r;
  Alcotest.(check int) "enable idempotent" (base + 2) (Route.leaf_count rt);
  System.delete_rule sys r;
  Alcotest.(check bool) "unregistered on delete" false (Route.registered rt r);
  Alcotest.(check int) "leaves dropped on delete" base (Route.leaf_count rt)

let test_disabled_creation () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let r =
    System.create_rule sys ~enabled:false ~monitor_classes:[ "employee" ]
      ~event:seq_event ~condition:"true" ~action:"noop" ()
  in
  Alcotest.(check bool) "not registered while disabled" false
    (Route.registered (route sys) r);
  System.enable sys r;
  Alcotest.(check bool) "registered on first enable" true
    (Route.registered (route sys) r)

let test_rehydrate_registers () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let e = new_employee db in
  let r =
    System.create_rule sys ~name:"reloaded" ~monitor:[ e ]
      ~event:(Expr.eom ~cls:"employee" "set_salary")
      ~condition:"true" ~action:"noop" ()
  in
  let text = Persist.to_string db in
  let db2 = Db.create () in
  Workloads.Payroll.install db2;
  let sys2 = System.create db2 in
  System.register_action sys2 "noop" (fun _ _ -> ());
  Persist.of_string db2 text;
  Alcotest.(check bool) "nothing indexed before rehydrate" false
    (Route.registered (route sys2) r);
  System.rehydrate sys2;
  Alcotest.(check bool) "indexed after rehydrate" true
    (Route.registered (route sys2) r);
  ignore (Db.send db2 e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "reloaded rule detects through the index" 1
    (System.rule_info sys2 r).Rule.triggered

(* A class defined after the rule's subsumption sets were first resolved
   must be picked up: define_class bumps the schema generation, and the
   cached sets are re-derived on the next delivery. *)
let test_new_subclass_invalidates () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let r =
    System.create_rule sys ~monitor_classes:[ "employee" ]
      ~event:(Expr.eom ~cls:"employee" "set_salary")
      ~condition:"true" ~action:"noop" ()
  in
  let e = new_employee db in
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "cache warmed" 1 (System.rule_info sys r).Rule.triggered;
  Db.define_class db (Oodb.Schema.define "temp_worker" ~super:"employee");
  let t = Db.new_object db "temp_worker" ~attrs:[ ("name", Value.Str "t") ] in
  ignore (Db.send db t "set_salary" [ Value.Float 2. ]);
  Alcotest.(check int) "new subclass instance reaches the rule" 2
    (System.rule_info sys r).Rule.triggered

(* Evolution DDL invalidates the same way: granting a subclass its own
   event interface entry changes nothing about subsumption, but the
   refreshed class_info must not leave the index serving stale sets. *)
let test_evolution_invalidates () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let r =
    System.create_rule sys ~monitor_classes:[ "employee" ]
      ~event:(Expr.prim ~cls:"employee" Oodb.Types.Before "get_name")
      ~condition:"true" ~action:"noop" ()
  in
  let e = new_employee db in
  ignore (Db.send db e "get_name" []);
  Alcotest.(check int) "get_name generates no events yet" 0
    (System.rule_info sys r).Rule.triggered;
  Evolution.add_event_generator db ~cls:"employee" ~meth:"get_name"
    Oodb.Schema.On_begin;
  ignore (Db.send db e "get_name" []);
  Alcotest.(check int) "detected after evolution" 1
    (System.rule_info sys r).Rule.triggered;
  Evolution.remove_event_generator db ~cls:"employee" ~meth:"get_name";
  ignore (Db.send db e "get_name" []);
  Alcotest.(check int) "silent again after removal" 1
    (System.rule_info sys r).Rule.triggered

(* A rule whose creation is rolled back leaves a stale registration: the
   guard must keep it silent, and prune_runtimes must reclaim it. *)
let test_rollback_leaves_then_prune () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  let e = new_employee db in
  Transaction.begin_ db;
  let r =
    System.create_rule sys ~monitor_classes:[ "employee" ]
      ~event:(Expr.eom ~cls:"employee" "set_salary")
      ~condition:"true" ~action:"noop" ()
  in
  Transaction.abort db;
  Alcotest.(check bool) "rule object rolled back" false (Db.exists db r);
  let rt = route sys in
  Alcotest.(check bool) "registration is stale, not gone" true
    (Route.registered rt r);
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "guard keeps the stale rule silent" 0
    (System.rule_info sys r).Rule.triggered;
  System.prune_runtimes sys;
  Alcotest.(check bool) "pruned from the index" false (Route.registered rt r);
  ignore (Db.send db e "set_salary" [ Value.Float 2. ])

let test_counters () =
  let db = employee_db () in
  let sys = System.create db in
  System.register_action sys "noop" (fun _ _ -> ());
  ignore
    (System.create_rule sys ~monitor_classes:[ "employee" ]
       ~event:(Expr.eom ~cls:"employee" "set_salary")
       ~condition:"true" ~action:"noop" ());
  ignore
    (System.create_rule sys ~monitor_classes:[ "employee" ]
       ~event:(Expr.prim ~cls:"employee" Oodb.Types.Before "get_age")
       ~condition:"true" ~action:"noop" ());
  let e = new_employee db in
  System.reset_stats sys;
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  let s = System.stats sys in
  Alcotest.(check int) "one bucket hit" 1 s.System.index_hits;
  Alcotest.(check int) "only the matching rule probed" 1 s.System.candidates_probed;
  Alcotest.(check int) "one leaf offered" 1 s.System.leaves_offered;
  ignore (Db.send db e "get_salary" [])
  (* get_salary has no leaves anywhere: no bucket, no probes *);
  let s = System.stats sys in
  Alcotest.(check int) "miss costs nothing" 1 s.System.index_hits;
  Alcotest.(check int) "no extra probes" 1 s.System.candidates_probed;
  System.reset_stats sys;
  let s = System.stats sys in
  Alcotest.(check int) "counters reset" 0 s.System.index_hits

let test_wildcard_handler () =
  let db = employee_db () in
  let sys = System.create db in
  let seen = ref 0 in
  let n = System.create_notifiable sys (fun _ -> incr seen) in
  Db.subscribe_class db ~cls:"employee" ~consumer:n;
  let e = new_employee db in
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  ignore (Db.send db e "get_age" []);
  (* get_age is On_both: two occurrences *)
  Alcotest.(check int) "handler hears every subscribed occurrence" 3 !seen

(* Unregistration tombstones a consumer's entries in place: across 10,000
   register/unregister rounds over a 500-leaf bucket, [leaf_count] stays
   exact, every delivery probes exactly the live entries, and the
   tombstones it passes over never exceed the unregistrations since the
   bucket was last rebuilt (every register forces one) nor the live
   entries (the dead-outnumber-live rebuild). *)
let test_tombstone_churn () =
  let db = employee_db () in
  let rt = Route.create db in
  Db.set_route db (Some (fun _ o occ -> Route.deliver rt o occ));
  let e = new_employee db in
  let ev = Expr.eom ~cls:"employee" "set_salary" in
  let consumer k = Oid.of_int (1_000_000 + k) in
  let register k =
    Route.register rt ~consumer:(consumer k) ~on_receive:ignore
      (Detector.create ~on_signal:ignore ev)
  in
  let live = ref [] and next = ref 0 in
  let add () =
    register !next;
    live := !next :: !live;
    incr next
  in
  for _ = 1 to 500 do
    add ()
  done;
  let rng = Workloads.Prng.create 5 in
  let since_rebuild = ref 0 and registered_since = ref false in
  let c = Route.counters rt in
  for round = 1 to 10_000 do
    let n = List.length !live in
    if n < 450 || (n < 550 && Workloads.Prng.int rng 2 = 0) then begin
      add ();
      registered_since := true
    end
    else begin
      let victim = List.nth !live (Workloads.Prng.int rng n) in
      Route.unregister rt (consumer victim);
      live := List.filter (( <> ) victim) !live;
      incr since_rebuild
    end;
    let n = List.length !live in
    if Route.leaf_count rt <> n then
      Alcotest.failf "round %d: leaf_count %d, live %d" round (Route.leaf_count rt) n;
    (* deliver every few rounds, so tombstones pile up in between *)
    if round mod 7 = 0 then begin
      let p0 = c.Route.candidates_probed and t0 = c.Route.tombstones_skipped in
      ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
      let probed = c.Route.candidates_probed - p0
      and skipped = c.Route.tombstones_skipped - t0 in
      if probed <> n then Alcotest.failf "round %d: probed %d of %d live" round probed n;
      if !registered_since && skipped <> 0 then
        Alcotest.failf "round %d: %d tombstones survived a register" round skipped;
      if skipped > !since_rebuild || skipped > n then
        Alcotest.failf "round %d: walked %d tombstones (%d unregistered, %d live)"
          round skipped !since_rebuild n;
      if !registered_since then since_rebuild := 0;
      registered_since := false
    end
  done;
  Alcotest.(check bool) "tombstones were skipped at all" true
    (c.Route.tombstones_skipped > 0)

(* An immediate rule whose action deletes a later candidate on the same
   route key: the deleted rule is not offered the occurrence being
   delivered. *)
let test_delete_during_delivery () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db in
  let ev = Expr.eom ~cls:"employee" "set_salary" in
  let victim = ref None and victim_checked = ref 0 in
  System.register_action sys "delete-victim" (fun _ _ ->
      Option.iter (System.delete_rule sys) !victim;
      victim := None);
  System.register_condition sys "victim-sees" (fun _ _ ->
      incr victim_checked;
      true);
  System.register_action sys "noop" (fun _ _ -> ());
  let killer =
    System.create_rule sys ~monitor:[ e ] ~event:ev ~condition:"true"
      ~action:"delete-victim" ()
  in
  let v =
    System.create_rule sys ~monitor:[ e ] ~event:ev ~condition:"victim-sees"
      ~action:"noop" ()
  in
  victim := Some v;
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "killer fired" 1 (System.rule_info sys killer).Rule.fired;
  Alcotest.(check bool) "victim deleted" false (Db.exists db v);
  Alcotest.(check int) "victim never offered the occurrence" 0 !victim_checked;
  ignore (Db.send db e "set_salary" [ Value.Float 2. ]);
  Alcotest.(check int) "nor any later one" 0 !victim_checked;
  Alcotest.(check (list oid)) "victim unsubscribed" [ killer ]
    (Db.consumers_of db e)

(* --- walks in ascending OID ------------------------------------------------ *)

(* A permutation of [0 .. n-1], fixed by the seed. *)
let shuffled n =
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| 25 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let check_ascending msg oids =
  Alcotest.(check (list oid)) msg (List.sort Oid.compare oids) oids

(* Wildcard handlers on one object hear an occurrence in ascending OID,
   whatever order they subscribed in; one unregistered during the walk is
   not called. *)
let test_wildcard_order () =
  let db = employee_db () in
  let sys = System.create db in
  let calls = ref [] in
  let ns =
    Array.init 40 (fun _ ->
        let self = ref (Oid.of_int 0) in
        let n = System.create_notifiable sys (fun _ -> calls := !self :: !calls) in
        self := n;
        n)
  in
  let e = new_employee db in
  Array.iter (fun i -> Db.subscribe db ~reactive:e ~consumer:ns.(i)) (shuffled 40);
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Alcotest.(check int) "every handler called" 40 (List.length !calls);
  check_ascending "ascending OID" (List.rev !calls);
  (* the first handler drops the last one before the walk reaches it *)
  calls := [];
  let last = ns.(39) in
  System.attach_handler sys ns.(0) (fun _ ->
      calls := ns.(0) :: !calls;
      Route.unregister (route sys) last);
  ignore (Db.send db e "set_salary" [ Value.Float 2. ]);
  Alcotest.(check int) "unregistered mid-walk: not called" 39 (List.length !calls);
  check_ascending "still ascending" (List.rev !calls)

(* [n] immediate rules on [e], each created with event [event i] and an
   action that records its OID; returned in creation order. *)
let recording_rules sys e ~n event =
  let fired = ref [] in
  let rules = Array.make n (Oid.of_int 0) in
  for i = 0 to n - 1 do
    let action = Printf.sprintf "record-%d" i in
    System.register_action sys action (fun _ _ -> fired := rules.(i) :: !fired);
    rules.(i) <-
      System.create_rule sys ~monitor:[ e ] ~event:(event i) ~condition:"true" ~action ()
  done;
  (rules, fired)

(* Temporal detectors subscribed to an object are driven by its
   occurrences in ascending OID: plus-events that come due together fire in
   that order. *)
let test_temporal_delivery_order () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db in
  let _, fired =
    recording_rules sys e ~n:40 (fun _ -> Expr.plus (Expr.eom ~cls:"employee" "set_salary") 5)
  in
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  Db.advance_clock db (Db.now db + 10);
  Alcotest.(check int) "nothing due yet" 0 (List.length !fired);
  ignore (Db.send db e "get_age" []);
  Alcotest.(check int) "all due at once" 40 (List.length !fired);
  check_ascending "ascending OID" (List.rev !fired)

(* One advance_time releases periodic firings rule by rule in ascending
   OID. *)
let test_advance_time_order () =
  let db = employee_db () in
  let sys = System.create db in
  let e = new_employee db in
  let _, fired =
    recording_rules sys e ~n:40 (fun _ ->
        Expr.periodic ~limit:1
          (Expr.eom ~cls:"employee" "set_salary")
          5
          (Expr.eom ~cls:"employee" "change_income"))
  in
  ignore (Db.send db e "set_salary" [ Value.Float 1. ]);
  System.advance_time sys (Db.now db + 6);
  Alcotest.(check int) "one firing each" 40 (List.length !fired);
  check_ascending "ascending OID" (List.rev !fired)

let suite =
  [
    test "register on create; enable/disable/delete" test_lifecycle;
    test "disabled creation stays out of the index" test_disabled_creation;
    test "rehydrate re-registers" test_rehydrate_registers;
    test "new subclass invalidates cached sets" test_new_subclass_invalidates;
    test "evolution DDL invalidates" test_evolution_invalidates;
    test "rolled-back rule: guarded then pruned" test_rollback_leaves_then_prune;
    test "routing counters" test_counters;
    test "wildcard handler delivery" test_wildcard_handler;
    test "unregister tombstones: exact counts under churn" test_tombstone_churn;
    test "rule deleted mid-delivery is not offered" test_delete_during_delivery;
    test "wildcard handlers in ascending OID" test_wildcard_order;
    test "temporal delivery in ascending OID" test_temporal_delivery_order;
    test "advance_time fires in ascending OID" test_advance_time_order;
  ]

(* Differential testing for the batched ingestion pipeline: a batch run
   through the vectorized paths — [Db.send_many], [System.ingest],
   [Detector.feed_many], [Shard_pool.ingest] — must be observationally
   identical to N sequential sends: same results, same firing decisions,
   same audit entries, same detector buffer states, same dead-letter
   behavior.  Only the costs may differ, and the coalescing counters must
   prove they do. *)

open Helpers
module Prng = Workloads.Prng
module Audit = Sentinel.Audit
module Shard_pool = Sentinel.Shard_pool

let outcome_tag = function
  | Audit.Fired -> "fired"
  | Audit.Condition_false -> "cond-false"
  | Audit.Aborted m -> "aborted:" ^ m
  | Audit.Action_error e -> "action-error:" ^ Printexc.to_string e
  | Audit.Contained e -> "contained:" ^ Printexc.to_string e
  | Audit.Quarantined e -> "quarantined:" ^ Printexc.to_string e

(* --- send_many / ingest vs sequential sends ------------------------------- *)

(* One fixture, four ways to push the same batch through it. *)
type mode =
  | Sequential  (* N bare sends *)
  | Vectorized  (* Db.send_many *)
  | Txn_sequential  (* N sends under one Transaction.atomically *)
  | Ingest  (* System.ingest: one txn + one coalescing scope *)

type fixture = {
  fx_db : Db.t;
  fx_sys : System.t;
  fx_audit : Audit.t;
  fx_rules : (string * Oid.t) list;
  fx_objs : Oid.t array;
  fx_seen : unit -> (string * int) list;
}

(* Rules covering the delivery paths batching touches: a simple class-level
   rule, a composite with buffer state, a param-filtered primitive, a
   temporal (Plus) registration, and a deferred-coupling rule whose firings
   drain at commit. *)
let fixture ?(extra = fun (_ : System.t) -> []) seed =
  let db = employee_db () in
  let sys = System.create db in
  let audit = Audit.attach sys in
  System.register_action sys "noop" (fun _ _ -> ());
  let mk name ?coupling ?policy event =
    ( name,
      System.create_rule sys ~name ?coupling ?policy
        ~monitor_classes:[ "employee" ] ~event ~condition:"true" ~action:"noop"
        () )
  in
  let e_set = Expr.eom ~cls:"employee" "set_salary" in
  let e_inc = Expr.eom ~cls:"employee" "change_income" in
  let rules =
    [
      mk "simple" e_set;
      mk "pair" (Expr.seq e_set e_inc);
      mk "filtered"
        (Expr.eom ~cls:"employee"
           ~filters:
             [ { Expr.pf_index = 0; pf_cmp = Expr.Cgt; pf_value = Value.Float 50. } ]
           "set_salary");
      mk "late" (Expr.plus e_set 3);
      mk "deferred" ~coupling:Sentinel.Coupling.Deferred e_inc;
    ]
    @ extra sys
  in
  let rng = Prng.create seed in
  let pop = Workloads.Payroll.populate db rng ~managers:2 ~employees:8 in
  let objs = Array.append pop.managers pop.employees in
  let seen = ref [] in
  let collector =
    System.create_notifiable sys (fun (o : Oodb.Occurrence.t) ->
        seen := (o.meth, o.at) :: !seen)
  in
  Db.subscribe_class db ~cls:"employee" ~consumer:collector;
  {
    fx_db = db;
    fx_sys = sys;
    fx_audit = audit;
    fx_rules = rules;
    fx_objs = objs;
    fx_seen = (fun () -> List.rev !seen);
  }

let gen_batch rng objs n =
  List.init n (fun _ ->
      let target = Prng.choice rng objs in
      match Prng.int rng 3 with
      | 0 -> (target, "set_salary", [ Value.Float (Prng.float rng 100.) ])
      | 1 -> (target, "change_income", [ Value.Float (Prng.float rng 100.) ])
      | _ -> (target, "get_age", []))

let push_batch mode fx batch =
  match mode with
  | Sequential ->
    Ok (List.map (fun (o, m, args) -> Db.send fx.fx_db o m args) batch)
  | Vectorized -> Ok (Db.send_many fx.fx_db batch)
  | Txn_sequential ->
    Transaction.atomically fx.fx_db (fun () ->
        List.map (fun (o, m, args) -> Db.send fx.fx_db o m args) batch)
  | Ingest -> System.ingest fx.fx_sys batch

(* The full observable surface of a run: per-event results, per-rule
   counters, the audit log (rule, outcome, detection time, constituent
   shape), the raw occurrence stream at an ad-hoc consumer — and, to expose
   residual detector buffer state, the firing deltas from one extra probe
   event sent after the batch. *)
let observe ?extra mode seed n =
  let fx = fixture ?extra seed in
  let rng = Prng.create (seed + 1) in
  let batch = gen_batch rng fx.fx_objs n in
  let results =
    match push_batch mode fx batch with
    | Ok vs -> `Ok vs
    | Error e -> `Error (Printexc.to_string e)
  in
  ignore (Db.send fx.fx_db fx.fx_objs.(0) "change_income" [ Value.Float 1. ]);
  ignore (Db.send fx.fx_db fx.fx_objs.(1) "set_salary" [ Value.Float 60. ]);
  let per_rule =
    List.map
      (fun (name, oid) ->
        let ri = System.rule_info fx.fx_sys oid in
        (name, ri.Sentinel.Rule.triggered, ri.Sentinel.Rule.fired))
      fx.fx_rules
  in
  let audit =
    List.map
      (fun (e : Audit.entry) ->
        (e.e_rule_name, outcome_tag e.e_outcome, e.e_at, shape e.e_instance))
      (Audit.entries fx.fx_audit)
  in
  let dead = List.length (System.dead_letters fx.fx_sys) in
  (results, per_rule, audit, fx.fx_seen (), dead)

let check_parity ?extra ~reference ~candidate seed n =
  let r = observe ?extra reference seed n
  and c = observe ?extra candidate seed n in
  let (r_res, r_rules, r_audit, r_seen, r_dead) = r
  and (c_res, c_rules, c_audit, c_seen, c_dead) = c in
  Alcotest.(check bool) "results" true (r_res = c_res);
  Alcotest.(check bool) "rule counters" true (r_rules = c_rules);
  Alcotest.(check bool) "audit entries" true (r_audit = c_audit);
  Alcotest.(check bool) "occurrence stream" true (r_seen = c_seen);
  Alcotest.(check int) "dead letters" r_dead c_dead;
  (* the workload must exercise the machinery it claims to compare *)
  Alcotest.(check bool) "non-trivial" true
    (List.exists (fun (_, _, f) -> f > 0) r_rules)

let test_send_many_parity () =
  List.iter
    (fun (seed, n) ->
      check_parity ~reference:Sequential ~candidate:Vectorized seed n)
    [ (3, 1); (5, 2); (7, 40); (11, 97) ]

let test_ingest_parity () =
  List.iter
    (fun (seed, n) ->
      check_parity ~reference:Txn_sequential ~candidate:Ingest seed n)
    [ (3, 1); (5, 2); (7, 40); (11, 97) ]

(* A rule action that (un)registers subscriptions mid-batch must invalidate
   the route-key memo: the spawned rule sees exactly the events a
   sequential run would show it. *)
let test_mid_batch_registration_parity () =
  let extra sys =
    let spawned = ref None in
    System.register_action sys "spawn" (fun _ _ ->
        if !spawned = None then
          spawned :=
            Some
              (System.create_rule sys ~name:"spawned"
                 ~monitor_classes:[ "employee" ]
                 ~event:(Expr.eom ~cls:"employee" "set_salary")
                 ~condition:"true" ~action:"noop" ()));
    [
      ( "spawner",
        System.create_rule sys ~name:"spawner"
          ~monitor_classes:[ "employee" ]
          ~event:(Expr.eom ~cls:"employee" "set_salary")
          ~condition:"true" ~action:"spawn" () );
    ]
  in
  check_parity ~extra ~reference:Txn_sequential ~candidate:Ingest 13 60

(* A mid-batch failure under Contain parks a dead letter and the rest of the
   batch proceeds — identically in both shapes.  Under the default Propagate
   the whole batch transaction rolls back in both. *)
let explode_extra sys =
  System.register_action sys "explode" (fun _ (inst : Detector.instance) ->
      match (List.hd inst.constituents).params with
      | Value.Float f :: _ when f > 90. -> failwith "poison salary"
      | _ -> ());
  [
    ( "fragile",
      System.create_rule sys ~name:"fragile" ~policy:Sentinel.Error_policy.Contain
        ~monitor_classes:[ "employee" ]
        ~event:(Expr.eom ~cls:"employee" "set_salary")
        ~condition:"true" ~action:"explode" () );
  ]

let test_contained_failure_parity () =
  check_parity ~extra:explode_extra ~reference:Txn_sequential ~candidate:Ingest
    17 80;
  (* and the failure actually happened: the batch is long enough that some
     salary draw exceeded the poison threshold *)
  let _, _, _, _, dead = observe ~extra:explode_extra Ingest 17 80 in
  Alcotest.(check bool) "dead letters parked" true (dead > 0)

let test_uncontained_failure_rolls_back () =
  let extra sys =
    System.register_action sys "explode" (fun _ _ -> failwith "boom");
    [
      ( "bomb",
        System.create_rule sys ~name:"bomb"
          ~monitor_classes:[ "employee" ]
          ~event:(Expr.eom ~cls:"employee" "change_income")
          ~condition:"true" ~action:"explode" () );
    ]
  in
  let fx = fixture ~extra 19 in
  let victim = fx.fx_objs.(2) in
  let before = Db.get fx.fx_db victim "salary" in
  let batch =
    [
      (victim, "set_salary", [ Value.Float 55. ]);
      (victim, "change_income", [ Value.Float 1. ]);
      (victim, "set_salary", [ Value.Float 77. ]);
    ]
  in
  (match System.ingest fx.fx_sys batch with
  | Ok _ -> Alcotest.fail "expected the batch to abort"
  | Error _ -> ());
  Alcotest.(check value) "whole batch rolled back" before
    (Db.get fx.fx_db victim "salary")

(* --- route-key coalescing counters ----------------------------------------- *)

let test_coalescing_counters () =
  let fx = fixture 23 in
  let k = 32 in
  let batch =
    List.init k (fun i ->
        ( fx.fx_objs.(i mod Array.length fx.fx_objs),
          "set_salary",
          [ Value.Float (float_of_int i) ] ))
  in
  (match System.ingest fx.fx_sys batch with
  | Ok _ -> ()
  | Error e -> raise e);
  let st = System.stats fx.fx_sys in
  (* every occurrence was delivered inside the batch scope... *)
  Alcotest.(check int) "batch_events" k st.System.batch_events;
  (* ...and all but the first probe of the single distinct route key hit
     the memo *)
  Alcotest.(check int) "coalesced_probes" (k - 1) st.System.coalesced_probes

(* --- Detector.feed_many ----------------------------------------------------- *)

let occ meth at = mk_occ ~at meth Oodb.Types.After
let ea = Expr.eom "a"
let eb = Expr.eom "b"
let ec = Expr.eom "c"

let chunked chunk l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if n = chunk then go (List.rev cur :: acc) [ x ] 1 tl
      else go acc (x :: cur) (n + 1) tl
  in
  go [] [] 0 l

let feed_signals feed_fn expr stream probe =
  let signals = ref [] in
  let d = Detector.create ~on_signal:(fun i -> signals := shape i :: !signals) expr in
  feed_fn d stream;
  let mid = List.length !signals in
  List.iter (Detector.feed d) probe;
  (mid, List.rev !signals)

let test_feed_many_parity () =
  let rng = Prng.create 29 in
  let meths = Array.init 30 (fun _ -> [| "a"; "b"; "c" |].(Prng.int rng 3)) in
  let stream = Array.to_list (Array.mapi (fun i m -> occ m (i + 1)) meths) in
  let probe = [ occ "a" 31; occ "b" 40; occ "c" 55 ] in
  let shapes =
    [
      ("seq", Expr.seq ea eb);
      ("conj", Expr.conj ea eb);
      ("any", Expr.any 2 [ ea; eb; ec ]);
      ("not-between", Expr.not_between ea eb ec);
      ("plus", Expr.plus ea 5);
      ("periodic", Expr.periodic ea 10 ec);
      ("aperiodic", Expr.aperiodic ea eb ec);
    ]
  in
  List.iter
    (fun (name, expr) ->
      let reference =
        feed_signals (fun d -> List.iter (Detector.feed d)) expr stream probe
      in
      List.iter
        (fun chunk ->
          let got =
            feed_signals
              (fun d s -> List.iter (Detector.feed_many d) (chunked chunk s))
              expr stream probe
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: chunk %d matches per-event feed" name chunk)
            true (got = reference))
        [ 1; 4; 7; 30 ];
      (* the temporal shapes must actually signal, or buffer-state parity
         is vacuous *)
      if name = "plus" || name = "periodic" then
        Alcotest.(check bool) (name ^ ": signalled") true
          (snd reference <> []))
    shapes

(* --- cross-shard batching --------------------------------------------------- *)

let n_dom = 4

let mk_pool fired =
  Shard_pool.create ~shards:n_dom
    ~init:(fun _ i ->
      let db = employee_db () in
      let sys = System.create db in
      System.register_action sys "count" (fun _ _ -> incr fired.(i));
      ignore
        (System.create_rule sys ~name:"watch" ~monitor_classes:[ "employee" ]
           ~event:(Expr.eom ~cls:"employee" "set_salary")
           ~condition:"true" ~action:"count" ());
      sys)
    ()

let pool_employees pool =
  Array.concat
    (List.init n_dom (fun i ->
         match
           Shard_pool.run_on pool i (fun sys ->
               Array.init 3 (fun _ -> new_employee (System.db sys)))
         with
         | Ok os -> os
         | Error e -> raise e))

let mk_events objs n =
  List.init n (fun i ->
      ( objs.(i mod Array.length objs),
        "set_salary",
        [ Value.Float (float_of_int i) ] ))

let test_cross_shard_ingest_parity () =
  let fired_a = Array.init n_dom (fun _ -> ref 0) in
  let fired_b = Array.init n_dom (fun _ -> ref 0) in
  let pool_a = mk_pool fired_a and pool_b = mk_pool fired_b in
  let objs_a = pool_employees pool_a and objs_b = pool_employees pool_b in
  let n = 64 in
  List.iter
    (fun (o, m, args) ->
      match Shard_pool.post pool_a o m args with
      | Ok () -> ()
      | Error e -> raise (Shard_pool.Shard_error e))
    (mk_events objs_a n);
  (match Shard_pool.ingest pool_b (mk_events objs_b n) with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e));
  Shard_pool.drain pool_a;
  Shard_pool.drain pool_b;
  for i = 0 to n_dom - 1 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d fired identically" i)
      !(fired_a.(i))
      !(fired_b.(i));
    Alcotest.(check bool)
      (Printf.sprintf "shard %d fired at all" i)
      true
      (!(fired_a.(i)) > 0)
  done;
  let st_a = Shard_pool.stats pool_a and st_b = Shard_pool.stats pool_b in
  Alcotest.(check int) "no failures (per-event pool)" 0
    (Array.fold_left ( + ) 0 st_a.Shard_pool.shard_failed);
  Alcotest.(check int) "no failures (batched pool)" 0
    (Array.fold_left ( + ) 0 st_b.Shard_pool.shard_failed);
  Shard_pool.stop pool_a;
  Shard_pool.stop pool_b

(* The acceptance gate: at batch=64 over 4 shards, [ingest] must cut
   mailbox pushes by at least 8x against per-event posting — one push per
   destination shard.  Each side is measured before its drain so barrier
   messages stay out of the count. *)
let test_mpsc_push_coalescing () =
  let fired = Array.init n_dom (fun _ -> ref 0) in
  let pool = mk_pool fired in
  let objs = pool_employees pool in
  let n = 64 in
  let pushes () = (Shard_pool.stats pool).Shard_pool.mpsc_pushes in
  Shard_pool.drain pool;
  (* per-event posting: one push per event *)
  let p0 = pushes () in
  List.iter
    (fun (o, m, args) ->
      match Shard_pool.post pool o m args with
      | Ok () -> ()
      | Error e -> raise (Shard_pool.Shard_error e))
    (mk_events objs n);
  let individual = pushes () - p0 in
  Shard_pool.drain pool;
  (* the same events through ingest: one push per destination shard *)
  let p1 = pushes () in
  (match Shard_pool.ingest pool (mk_events objs n) with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e));
  let coalesced = pushes () - p1 in
  Shard_pool.drain pool;
  Alcotest.(check int) "per-event posting pushes once per event" n individual;
  Alcotest.(check int) "ingest pushes once per destination" n_dom coalesced;
  Alcotest.(check bool)
    (Printf.sprintf "coalescing >= 8x (%d vs %d)" individual coalesced)
    true
    (individual >= 8 * coalesced);
  Shard_pool.stop pool

(* A durable ingest is answered by its seal: when the idle hook that seals
   raises, the ingest parked on it fails, and the next one, sealed, is
   acknowledged — at every shard count. *)
let test_failed_seal_fails_waiter ~shards () =
  let armed = Atomic.make true in
  let marker = Value.Float 1. in
  let pool =
    Shard_pool.create ~shards
      ~on_idle:(fun _ sys ->
        let db = System.db sys in
        let applied =
          List.exists
            (fun o -> Value.equal (Db.get db o "salary") marker)
            (Db.extent db "employee")
        in
        if applied && Atomic.exchange armed false then failwith "seal failed")
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  let o =
    match
      Shard_pool.run_on pool 0 (fun sys -> new_employee (System.db sys))
    with
    | Ok o -> o
    | Error e -> raise e
  in
  (match Shard_pool.ingest ~wait:true pool [ (o, "set_salary", [ marker ]) ] with
  | Error (Shard_pool.Degraded 0) -> ()
  | Ok () -> Alcotest.fail "an unsealed ingest was acknowledged"
  | Error e -> raise (Shard_pool.Shard_error e));
  (match
     Shard_pool.ingest ~wait:true pool [ (o, "set_salary", [ Value.Float 2. ]) ]
   with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e));
  Alcotest.(check int) "the failed seal is a shard failure" 1
    (Shard_pool.stats pool).Shard_pool.shard_failed.(0);
  Shard_pool.stop pool

let suite =
  [
    test "send_many matches sequential sends" test_send_many_parity;
    test "ingest matches sends in one transaction" test_ingest_parity;
    test "mid-batch registration invalidates coalescing"
      test_mid_batch_registration_parity;
    test "contained mid-batch failure dead-letters identically"
      test_contained_failure_parity;
    test "uncontained failure rolls the batch back"
      test_uncontained_failure_rolls_back;
    test "route coalescing counters" test_coalescing_counters;
    test "feed_many matches per-event feed" test_feed_many_parity;
    test "cross-shard ingest parity" test_cross_shard_ingest_parity;
    test "cross-shard ingest coalesces mailbox pushes" test_mpsc_push_coalescing;
    test "failed seal fails its durable ingest"
      (test_failed_seal_fails_waiter ~shards:2);
    test "shards=1: failed seal fails its durable ingest"
      (test_failed_seal_fails_waiter ~shards:1);
  ]

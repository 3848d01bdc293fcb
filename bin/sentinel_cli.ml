(* sentinel-cli: drive the Sentinel active-OODB from the command line.

     sentinel-cli generate out.db --scenario market --objects 100 --ops 10000
     sentinel-cli inspect out.db
     sentinel-cli demo purchase
     sentinel-cli scenarios *)

module Db = Oodb.Db
module Value = Oodb.Value
module System = Sentinel.System
module Expr = Events.Expr

let install_all db =
  Workloads.Payroll.install db;
  Workloads.Stock_market.install db;
  Workloads.Hospital.install db;
  Workloads.Banking.install db

let scenario_names = [ "market"; "payroll"; "hospital"; "banking" ]

(* Build a database for a scenario, attach a representative rule, run the
   workload, and return (db, sys). *)
let run_scenario name ~seed ~objects ~ops =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  let rng = Workloads.Prng.create seed in
  let fired = ref 0 in
  System.register_action sys "count" (fun _ _ -> incr fired);
  (match name with
  | "market" ->
    let market =
      Workloads.Stock_market.populate db rng ~stocks:objects ~indexes:3
        ~portfolios:5
    in
    ignore
      (System.create_rule sys ~name:"price-watch"
         ~monitor_classes:[ Workloads.Stock_market.stock_class ]
         ~event:(Expr.eom ~cls:Workloads.Stock_market.stock_class "set_price")
         ~condition:"true" ~action:"count" ());
    Workloads.Dsl.apply_ops db (Workloads.Stock_market.ticks rng market ~n:ops)
  | "payroll" ->
    let pop =
      Workloads.Payroll.populate db rng ~managers:(max 1 (objects / 10))
        ~employees:objects
    in
    ignore
      (System.create_rule sys ~name:"salary-watch"
         ~monitor_classes:[ Workloads.Payroll.employee_class ]
         ~event:(Expr.eom ~cls:Workloads.Payroll.employee_class "set_salary")
         ~condition:"true" ~action:"count" ());
    Workloads.Dsl.apply_ops db (Workloads.Payroll.salary_updates rng pop ~n:ops)
  | "hospital" ->
    let ward =
      Workloads.Hospital.populate db rng ~patients:objects ~physicians:3
    in
    ignore
      (System.create_rule sys ~name:"vitals-watch"
         ~monitor_classes:[ Workloads.Hospital.patient_class ]
         ~event:(Expr.eom ~cls:Workloads.Hospital.patient_class "record_vitals")
         ~condition:"true" ~action:"count" ());
    Workloads.Dsl.apply_ops db (Workloads.Hospital.vitals_stream rng ward ~n:ops ())
  | "banking" ->
    let accounts = Workloads.Banking.populate db rng ~accounts:objects in
    ignore
      (System.create_rule sys ~name:"depwit-watch"
         ~monitor_classes:[ Workloads.Banking.account_class ]
         ~event:
           (Expr.seq
              (Expr.eom ~cls:Workloads.Banking.account_class "deposit")
              (Expr.bom ~cls:Workloads.Banking.account_class "withdraw"))
         ~condition:"true" ~action:"count" ());
    Workloads.Dsl.apply_ops db
      (Workloads.Banking.transactions rng accounts ~n:ops ())
  | other -> failwith (Printf.sprintf "unknown scenario %S" other));
  (db, sys, !fired)

let cmd_generate path scenario seed objects ops =
  let db, sys, fired = run_scenario scenario ~seed ~objects ~ops in
  Oodb.Persist.save db path;
  let s = Db.stats db in
  Printf.printf
    "scenario %s: %d sends, %d events, %d notifications, rule fired %d times\n"
    scenario s.sends s.events_generated s.notifications fired;
  Printf.printf "saved %s (%d rules, %d objects)\n" path
    (List.length (System.rules sys))
    (List.length
       (List.concat_map (fun c -> Db.extent db ~deep:false c) (Db.classes db)))

let cmd_inspect path =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  (* Re-register the function names generate's rules refer to, so
     rehydration can re-link them (inert here). *)
  System.register_action sys "count" (fun _ _ -> ());
  Oodb.Persist.load db path;
  System.rehydrate sys;
  Printf.printf "database %s\n" path;
  Format.printf "%a" Oodb.Introspect.pp_summary db;
  let show_class cls =
    let n = List.length (Db.extent db ~deep:false cls) in
    if n > 0 then Printf.printf "  %-16s %6d instance(s)\n" cls n
  in
  List.iter show_class (List.sort compare (Db.classes db));
  List.iter
    (fun oid ->
      let r = System.rule_info sys oid in
      Printf.printf
        "  rule %-20s %s  coupling=%s context=%s priority=%d enabled=%b \
         fired=%d policy=%s%s\n"
        r.Sentinel.Rule.name
        (Events.Expr.to_string r.Sentinel.Rule.event)
        (Sentinel.Coupling.to_string r.Sentinel.Rule.coupling)
        (Events.Context.to_string (Sentinel.Rule.context r))
        r.Sentinel.Rule.priority r.Sentinel.Rule.enabled r.Sentinel.Rule.fired
        (Sentinel.Error_policy.to_string r.Sentinel.Rule.policy)
        (if r.Sentinel.Rule.quarantined then " QUARANTINED" else ""))
    (System.rules sys);
  let dls = System.dead_letters sys in
  if dls <> [] then Printf.printf "  %d dead letter(s) queued\n" (List.length dls)

let cmd_demo scenario =
  let _db, _sys, fired = run_scenario scenario ~seed:42 ~objects:50 ~ops:2000 in
  Printf.printf "demo %s: rule fired %d time(s) over 2000 operations\n" scenario
    fired

let cmd_scenarios () =
  List.iter print_endline scenario_names

(* Load declarative rules (Rule_dsl syntax) into a persisted store, run an
   optional workload against it, and save the result. *)
let cmd_rules db_path rules_path ops =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  let fired = ref 0 in
  System.register_action sys "count" (fun _ _ -> incr fired);
  System.register_action sys "report" (fun _db inst ->
      Printf.printf "  rule fired: %s\n"
        (Format.asprintf "%a" Events.Detector.pp_instance inst));
  if Sys.file_exists db_path then begin
    Oodb.Persist.load db db_path;
    System.rehydrate sys
  end;
  let created = Sentinel.Rule_dsl.load_file sys rules_path in
  Printf.printf "loaded %d rule(s) from %s:\n" (List.length created) rules_path;
  List.iter
    (fun oid -> print_string (Sentinel.Rule_dsl.render sys oid))
    created;
  if ops > 0 then begin
    (* drive whichever workload classes have instances *)
    let rng = Workloads.Prng.create 42 in
    let send_random cls meth args_of =
      match Db.extent db ~deep:true cls with
      | [] -> false
      | objs ->
        let arr = Array.of_list objs in
        for _ = 1 to ops do
          ignore (Db.send db (Workloads.Prng.choice rng arr) meth (args_of rng))
        done;
        true
    in
    let drove =
      send_random "employee" "set_salary" (fun rng ->
          [ Value.Float (Workloads.Prng.float rng 10_000.) ])
      || send_random "stock" "set_price" (fun rng ->
             [ Value.Float (Workloads.Prng.float rng 200.) ])
      || send_random "account" "deposit" (fun rng ->
             [ Value.Float (Workloads.Prng.float rng 500.) ])
    in
    if drove then Printf.printf "workload done; 'count' actions ran %d time(s)\n" !fired
  end;
  Oodb.Persist.save db db_path;
  Printf.printf "saved %s\n" db_path

let cmd_query db_path cls pred_text =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  System.register_action sys "count" (fun _ _ -> ());
  Oodb.Persist.load db db_path;
  System.rehydrate sys;
  let pred = Oodb.Query_parser.parse pred_text in
  let hits = Oodb.Query.select db cls pred in
  Printf.printf "%d object(s) match %s\n" (List.length hits)
    (Oodb.Query_parser.to_syntax pred);
  List.iter
    (fun oid ->
      Printf.printf "  %s %s:" (Oodb.Oid.to_string oid) (Db.class_of db oid);
      List.iter
        (fun (name, v) -> Printf.printf " %s=%s" name (Value.to_string v))
        (Db.attrs db oid);
      print_newline ())
    hits

let load_store path =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  System.register_action sys "count" (fun _ _ -> ());
  System.register_action sys "report" (fun _ _ -> ());
  Oodb.Persist.load db path;
  System.rehydrate sys;
  (db, sys)

let cmd_verify path =
  let db, _sys = load_store path in
  match Oodb.Verify.check ~quiescent:true db with
  | Ok () ->
    Printf.printf "%s: integrity OK\n" path
  | Error problems ->
    Printf.printf "%s: %d problem(s)\n" path (List.length problems);
    List.iter (fun p -> print_endline ("  " ^ p)) problems;
    exit 1

(* Dead-letter queue maintenance: failed firings contained by a rule's
   error policy wait in the store as __dead_letter objects until an
   operator lists, replays, or purges them. *)
let cmd_dlq path action =
  let db, sys = load_store path in
  match action with
  | "list" ->
    let dls = System.dead_letters sys in
    Printf.printf "%s: %d dead letter(s)\n" path (List.length dls);
    List.iter
      (fun dl ->
        let get a = Db.get db dl a in
        Printf.printf "  %s rule=%s attempts=%d at=%d error=%s\n"
          (Oodb.Oid.to_string dl)
          (Value.to_str (get Sentinel.Sentinel_classes.a_name))
          (Value.to_int (get Sentinel.Sentinel_classes.a_attempts))
          (Value.to_int (get Sentinel.Sentinel_classes.a_at))
          (Value.to_str (get Sentinel.Sentinel_classes.a_error));
        Printf.printf "    instance %s\n"
          (Value.to_str (get Sentinel.Sentinel_classes.a_instance)))
      dls
  | "replay" ->
    let dls = System.dead_letters sys in
    let ok = ref 0 and failed = ref 0 in
    List.iter
      (fun dl ->
        match System.replay_dead_letter sys dl with
        | Ok () -> incr ok
        | Error e ->
          incr failed;
          Printf.printf "  %s still failing: %s\n" (Oodb.Oid.to_string dl)
            (Printexc.to_string e))
      dls;
    Printf.printf "replayed %d dead letter(s): %d succeeded, %d still failing\n"
      (List.length dls) !ok !failed;
    Oodb.Persist.save db path;
    Printf.printf "saved %s\n" path;
    if !failed > 0 then exit 1
  | "purge" ->
    let n = System.purge_dead_letters sys in
    Oodb.Persist.save db path;
    Printf.printf "purged %d dead letter(s); saved %s\n" n path
  | other ->
    Printf.eprintf "dlq action %S? (list|replay|purge)\n" other;
    exit 2

let cmd_reinstate path rule_name =
  let db, sys = load_store path in
  match System.find_rule sys rule_name with
  | None ->
    Printf.eprintf "%s: no rule named %S\n" path rule_name;
    exit 1
  | Some oid ->
    System.reinstate sys oid;
    Oodb.Persist.save db path;
    Printf.printf "rule %s reinstated; saved %s\n" rule_name path

let cmd_analyze path dot =
  let _db, sys = load_store path in
  Format.printf "%a" Sentinel.Analysis.pp_report sys;
  match dot with
  | Some out ->
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Sentinel.Analysis.to_dot sys));
    Printf.printf "triggering graph written to %s\n" out
  | None -> ()

(* The paper's §7 back-of-the-envelope comparison, as a feature matrix. *)
let cmd_compare () =
  let rows =
    [
      ("", "Ode", "ADAM", "Sentinel");
      ("rule specification time", "class definition", "runtime", "both");
      ("rules as first-class objects", "no", "yes", "yes");
      ("events as first-class objects", "no (expressions)", "partial", "yes");
      ("composite events (and/or/seq)", "yes", "no", "yes (+ any/not/A/P/plus)");
      ("events spanning classes", "no", "no", "yes");
      ("events spanning instances", "no", "no", "yes");
      ("instance-level rules", "bind/activate", "disabled-for list", "subscription");
      ("class-level rules", "yes", "active-class", "class subscription");
      ("rule checking dispatch", "inlined per class", "central scan", "subscription");
      ("add rule to live class", "recompile", "cheap", "cheap");
      ("monitored object unaware of rules", "no", "no", "yes (event interface)");
      ("parameter contexts", "no", "no", "recent/chronicle/continuous/cumulative");
      ("coupling modes", "immediate", "immediate", "immediate/deferred/detached");
      ("rules on rules", "no", "no", "yes");
    ]
  in
  List.iteri
    (fun i (a, b, c, d) ->
      Printf.printf "%-32s | %-18s | %-18s | %s\n" a b c d;
      if i = 0 then print_endline (String.make 110 '-'))
    rows

(* Run a scenario with the metrics registry enabled and print the per-stage
   counter/latency table next to the system counters. *)
let cmd_metrics scenario seed objects ops =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  let _db, sys, fired = run_scenario scenario ~seed ~objects ~ops in
  let s = System.stats sys in
  Printf.printf "scenario %s: %d ops, rule fired %d time(s)\n" scenario ops fired;
  Printf.printf "dispatched=%d conditions_checked=%d actions_executed=%d\n"
    s.System.dispatched s.System.conditions_checked s.System.actions_executed;
  (* spans_dropped is the ring's own eviction count; deriving drops as
     recorded minus retained over-reports once the ring has been cleared *)
  Printf.printf "cascades traced=%d spans recorded=%d dropped=%d\n\n"
    (Obs.Trace.traces_started ())
    (Obs.Trace.spans_recorded ())
    (Obs.Trace.spans_dropped ());
  print_string (Obs.Metrics.report ());
  Obs.Trace.disable ();
  Obs.Metrics.disable ()

(* Trace N banking transactions.  The rule is the deposit->withdraw sequence
   in *deferred* coupling and each transaction is explicit, so one cascade
   crosses every stage: the triggering send, indexed routing, composite
   detection, the deferred enqueue, the scheduler batch at commit, and the
   firing — all under one trace id. *)
let cmd_trace txns out =
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  let rng = Workloads.Prng.create 42 in
  let accounts = Workloads.Banking.populate db rng ~accounts:8 in
  System.register_action sys "count" (fun _ _ -> ());
  ignore
    (System.create_rule sys ~name:"depwit-watch"
       ~coupling:Sentinel.Coupling.Deferred
       ~monitor_classes:[ Workloads.Banking.account_class ]
       ~event:
         (Expr.seq
            (Expr.eom ~cls:Workloads.Banking.account_class "deposit")
            (Expr.bom ~cls:Workloads.Banking.account_class "withdraw"))
       ~condition:"true" ~action:"count" ());
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  for _ = 1 to max 1 txns do
    let acct = Workloads.Prng.choice rng accounts in
    match
      Oodb.Transaction.atomically db (fun () ->
          ignore (Db.send db acct "deposit" [ Value.Float 100. ]);
          ignore (Db.send db acct "withdraw" [ Value.Float 50. ]))
    with
    | Ok () -> ()
    | Error e -> raise e
  done;
  Obs.Trace.disable ();
  let spans = Obs.Trace.spans () in
  (* Export the last cascade that reached a firing; fall back to everything
     if none did. *)
  let chosen =
    match
      List.rev
        (List.filter (fun s -> String.equal s.Obs.Trace.sp_name "fire") spans)
    with
    | f :: _ -> Obs.Trace.find_trace f.Obs.Trace.sp_trace
    | [] -> spans
  in
  let json = Obs.Trace.to_chrome_json ~spans:chosen () in
  match out with
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc json);
    Printf.printf
      "%d span(s) across %d trace(s), %d dropped; one trace (%d span(s)) \
       written to %s\n"
      (List.length spans)
      (Obs.Trace.traces_started ())
      (Obs.Trace.spans_dropped ())
      (List.length chosen) path
  | None -> print_endline json

(* Remove a directory of plain files and the directory itself. *)
let remove_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Sys.rmdir dir with Sys_error _ -> ()

(* Domain-parallel execution: run the payroll send workload through an
   OID-sharded pool and report per-shard activity.  The pool runs
   supervised at every shard count: --kill demonstrates a mid-batch crash
   being detected and restarted, and --status renders the per-shard
   supervision table.  Each shard journals to its own WAL in a fresh
   temporary directory (removed at exit), and [init] replays that log
   before attaching it, so a restarted shard gets its objects back.  The
   command exits 1 when any send failed. *)
let run_shards dir shards objects ops status kill =
  let wal_path i = Filename.concat dir (Printf.sprintf "shard%d.wal" i) in
  let fired = Array.init shards (fun _ -> Atomic.make 0) in
  let supervision =
    { Sentinel.Shard_pool.default_supervision with heartbeat_interval_ms = 2 }
  in
  let pool =
    Sentinel.Shard_pool.create ~shards ~supervision
      ~init:(fun _pool i ->
        let db = Db.create () in
        Workloads.Payroll.install db;
        let sys = System.create db in
        System.register_action sys "count" (fun _ _ -> Atomic.incr fired.(i));
        (* the rule is code, re-created on every start rather than logged *)
        ignore
          (System.create_rule sys ~name:"salary-watch"
             ~monitor_classes:[ Workloads.Payroll.employee_class ]
             ~event:(Expr.eom ~cls:Workloads.Payroll.employee_class "set_salary")
             ~condition:"true" ~action:"count" ());
        (* the objects come back from the shard's own log; the kill is a
           domain's death, not the machine's, so flushed batches suffice *)
        ignore (Oodb.Wal.replay db (wal_path i));
        ignore (System.attach_wal ~sync:false sys (wal_path i));
        sys)
      ()
  in
  let per = max 1 (objects / shards) in
  let oids =
    Array.concat
      (List.init shards (fun i ->
           match
             Sentinel.Shard_pool.run_on pool i (fun sys ->
                 Array.init per (fun _ ->
                     Db.new_object (System.db sys)
                       Workloads.Payroll.employee_class))
           with
           | Ok os -> os
           | Error e -> raise e))
  in
  let n = Array.length oids in
  let t0 = Obs.Clock.now_ns () in
  let post_one k =
    match
      Sentinel.Shard_pool.post pool oids.(k mod n) "set_salary"
        [ Value.Float (float_of_int k) ]
    with
    | Ok () -> ()
    | Error e -> failwith (Sentinel.Shard_pool.error_to_string e)
  in
  let half = ops / 2 in
  for k = 0 to half - 1 do
    post_one k
  done;
  (match kill with
  | Some victim ->
    if victim < 0 || victim >= shards then failwith "--kill: no such shard";
    (match Sentinel.Shard_pool.kill pool victim with
    | Ok () -> ()
    | Error e -> failwith (Sentinel.Shard_pool.error_to_string e));
    let deadline = Unix.gettimeofday () +. 5. in
    let rec wait () =
      let st = Sentinel.Shard_pool.stats pool in
      if
        st.Sentinel.Shard_pool.shard_restarts.(victim) >= 1
        && Sentinel.Shard_pool.shard_state pool victim = `Ready
      then ()
      else if Unix.gettimeofday () > deadline then
        failwith "killed shard was not restarted in time"
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    wait ();
    Printf.printf "killed shard %d mid-batch; supervisor restarted it\n"
      victim
  | None -> ());
  for k = half to ops - 1 do
    post_one k
  done;
  Sentinel.Shard_pool.drain pool;
  let dt = (Obs.Clock.now_ns () -. t0) /. 1e9 in
  let st = Sentinel.Shard_pool.stats pool in
  let parked = Sentinel.Shard_pool.dead_letter_count pool in
  for i = 0 to shards - 1 do
    ignore (Sentinel.Shard_pool.run_on pool i System.detach_wal)
  done;
  Sentinel.Shard_pool.stop pool;
  Printf.printf
    "%d send(s) over %d object(s) across %d shard(s): %.0f ev/s, %d \
     forwarded cross-shard\n"
    ops n shards
    (float_of_int ops /. dt)
    st.Sentinel.Shard_pool.forwarded;
  Array.iteri
    (fun i c ->
      Printf.printf "  shard %d: processed=%d failed=%d fired=%d\n" i
        st.Sentinel.Shard_pool.shard_processed.(i)
        st.Sentinel.Shard_pool.shard_failed.(i)
        (Atomic.get c))
    fired;
  if status then begin
    Printf.printf "supervision status:\n";
    Printf.printf "  %-5s  %-10s  %9s  %6s  %8s  %5s\n" "shard" "state"
      "processed" "failed" "restarts" "inbox";
    Array.iteri
      (fun i state ->
        Printf.printf "  %-5d  %-10s  %9d  %6d  %8d  %5d\n" i
          (Sentinel.Shard_pool.state_to_string state)
          st.Sentinel.Shard_pool.shard_processed.(i)
          st.Sentinel.Shard_pool.shard_failed.(i)
          st.Sentinel.Shard_pool.shard_restarts.(i)
          st.Sentinel.Shard_pool.inbox_depth.(i))
      st.Sentinel.Shard_pool.shard_state;
    Printf.printf
      "  pool: enqueued=%d completed=%d discarded=%d shed=%d \
       dead-lettered=%d (parked %d) timeouts=%d\n"
      st.Sentinel.Shard_pool.enqueued st.Sentinel.Shard_pool.completed
      st.Sentinel.Shard_pool.discarded st.Sentinel.Shard_pool.shed
      st.Sentinel.Shard_pool.dead_lettered parked
      st.Sentinel.Shard_pool.timeouts
  end;
  Array.fold_left ( + ) 0 st.Sentinel.Shard_pool.shard_failed

let cmd_shards shards objects ops status kill =
  if shards < 1 then failwith "need at least one shard";
  let dir = Filename.temp_dir "sentinel-shards" "" in
  let failed =
    Fun.protect
      ~finally:(fun () -> remove_dir dir)
      (fun () -> run_shards dir shards objects ops status kill)
  in
  if failed > 0 then begin
    Printf.printf "%d send(s) failed\n" failed;
    exit 1
  end

(* Batched ingestion: drive the stock-market tick feed through the
   vectorized ingest pipeline — one transaction, one cascade trace and one
   route-coalescing scope per batch, cross-shard sub-batches shipped as at
   most one message per destination — and report per-event throughput plus
   the coalescing evidence. *)
let cmd_ingest shards batch objects ops seed =
  if shards < 1 then failwith "need at least one shard";
  if batch < 1 then failwith "--batch must be >= 1";
  let fired = Array.init shards (fun _ -> Atomic.make 0) in
  let pool =
    Sentinel.Shard_pool.create ~shards
      ~init:(fun _pool i ->
        let db = Db.create () in
        Workloads.Stock_market.install db;
        let sys = System.create db in
        System.register_action sys "count" (fun _ _ -> Atomic.incr fired.(i));
        ignore
          (System.create_rule sys ~name:"price-watch"
             ~monitor_classes:[ Workloads.Stock_market.stock_class ]
             ~event:
               (Expr.eom ~cls:Workloads.Stock_market.stock_class "set_price")
             ~condition:"true" ~action:"count" ());
        sys)
      ()
  in
  let per = max 1 (objects / shards) in
  let markets =
    List.init shards (fun i ->
        match
          Sentinel.Shard_pool.run_on pool i (fun sys ->
              Workloads.Stock_market.populate (System.db sys)
                (Workloads.Prng.create (seed + i))
                ~stocks:per ~indexes:0 ~portfolios:0)
        with
        | Ok m -> m
        | Error e -> raise e)
  in
  (* one pool-wide market: the feed draws from every shard's stocks, so a
     multi-shard batch genuinely fans out *)
  let market =
    {
      Workloads.Stock_market.stocks =
        Array.concat
          (List.map (fun m -> m.Workloads.Stock_market.stocks) markets);
      indexes = [||];
      portfolios = [||];
    }
  in
  let rng = Workloads.Prng.create seed in
  let n_batches = max 1 (ops / batch) in
  let feed =
    Workloads.Stock_market.tick_batches rng market
      ~tickers:(Array.length market.Workloads.Stock_market.stocks)
      ~rate:batch ~batches:n_batches
  in
  let total = n_batches * batch in
  let t0 = Obs.Clock.now_ns () in
  List.iter
    (fun evs ->
      match Sentinel.Shard_pool.ingest pool evs with
      | Ok () -> ()
      | Error e -> failwith (Sentinel.Shard_pool.error_to_string e))
    feed;
  Sentinel.Shard_pool.drain pool;
  let dt = (Obs.Clock.now_ns () -. t0) /. 1e9 in
  let st = Sentinel.Shard_pool.stats pool in
  let batch_events = ref 0 and coalesced = ref 0 in
  for i = 0 to shards - 1 do
    let s = System.stats (Sentinel.Shard_pool.system pool i) in
    batch_events := !batch_events + s.System.batch_events;
    coalesced := !coalesced + s.System.coalesced_probes
  done;
  Sentinel.Shard_pool.stop pool;
  Printf.printf
    "%d event(s) in %d batch(es) of %d across %d shard(s): %.0f ev/s\n" total
    n_batches batch shards
    (float_of_int total /. dt);
  Printf.printf
    "coalescing: %d event(s) delivered in batch scope, %d route probe(s) \
     saved, %d mailbox push(es)\n"
    !batch_events !coalesced st.Sentinel.Shard_pool.mpsc_pushes;
  Array.iteri
    (fun i c -> Printf.printf "  shard %d: fired=%d\n" i (Atomic.get c))
    fired

(* Network server: front a shard pool with the wire protocol.  Each shard
   gets the full workload schema plus a populated scenario so remote
   clients have objects to drive and classes to subscribe to. *)
let cmd_serve port shards scenario objects seed =
  if shards < 1 then failwith "need at least one shard";
  let pool =
    Sentinel.Shard_pool.create ~shards
      ~init:(fun _pool i ->
        let db = Db.create () in
        install_all db;
        let sys = System.create db in
        let rng = Workloads.Prng.create (seed + i) in
        let per = max 1 (objects / shards) in
        (match scenario with
        | "market" ->
          ignore
            (Workloads.Stock_market.populate db rng ~stocks:per ~indexes:0
               ~portfolios:0)
        | "payroll" ->
          ignore
            (Workloads.Payroll.populate db rng
               ~managers:(max 1 (per / 10))
               ~employees:per)
        | "hospital" ->
          ignore (Workloads.Hospital.populate db rng ~patients:per ~physicians:3)
        | "banking" -> ignore (Workloads.Banking.populate db rng ~accounts:per)
        | other -> failwith (Printf.sprintf "unknown scenario %S" other));
        sys)
      ()
  in
  let server = Net.Server.create ~port ~pool () in
  Printf.printf
    "sentinel-cli serve: protocol v%d on port %d, %d shard(s), scenario %s \
     (%d objects)\n\
     press Ctrl-C to stop\n\
     %!"
    Net.Frame.version (Net.Server.port server) shards scenario objects;
  (* serve until interrupted *)
  let rec forever () =
    Thread.delay 3600.;
    forever ()
  in
  forever ()

(* Exit codes for scripting: 10 connection refused / unreachable,
   11 protocol version mismatch, 12 server-side degraded shard. *)
let exit_refused = 10
let exit_version = 11
let exit_degraded = 12

let cmd_connect host port status watch drive ops batch duration =
  let split_target what s =
    match String.index_opt s '.' with
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> failwith (Printf.sprintf "%s expects CLASS.METHOD, got %S" what s)
  in
  try
    let client =
      Net.Sentinel_client.connect ~client_name:"sentinel-cli" ~max_attempts:3
        ~host ~port ()
    in
    Printf.printf "connected to %s:%d (protocol v%d, %d shard(s))\n%!" host
      port Net.Frame.version
      (Net.Sentinel_client.shards client);
    if status then begin
      print_endline (Net.Sentinel_client.server_stats client)
    end;
    (match watch with
    | Some target ->
      let cls, meth = split_target "--watch" target in
      let seen = Atomic.make 0 in
      let _sub =
        Net.Sentinel_client.subscribe client ~name:"cli-watch" ~classes:[ cls ]
          (Expr.eom ~cls meth)
          (fun instances ->
            List.iter
              (fun inst ->
                Atomic.incr seen;
                Printf.printf "firing %d: %s\n%!" (Atomic.get seen)
                  (Events.Codec.encode_instance inst))
              instances)
      in
      Printf.printf "watching %s.%s for %.1fs...\n%!" cls meth duration;
      Thread.delay duration;
      Printf.printf "watched %d firing(s)\n%!" (Atomic.get seen)
    | None -> ());
    (match drive with
    | Some target ->
      let cls, meth = split_target "--drive" target in
      let rows = Net.Sentinel_client.query client ~cls ~pred:"true" in
      if rows = [] then failwith (Printf.sprintf "no %s objects to drive" cls);
      let oids = Array.of_list (List.map (fun (oid, _, _) -> oid) rows) in
      let rng = Workloads.Prng.create 42 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to ops - 1 do
        let oid = Oodb.Oid.of_int oids.(i mod Array.length oids) in
        Net.Sentinel_client.send client
          (oid, meth, [ Value.Float (20. +. Workloads.Prng.float rng 160.) ]);
        if (i + 1) mod batch = 0 then ignore (Net.Sentinel_client.flush client)
      done;
      ignore (Net.Sentinel_client.flush client);
      Net.Sentinel_client.drain client;
      let dt = Unix.gettimeofday () -. t0 in
      let s = Net.Sentinel_client.stats client in
      Printf.printf
        "drove %d %s.%s event(s) in %d-event batches: %.0f ev/s (%d flushes)\n"
        s.Net.Sentinel_client.events_sent cls meth batch
        (float_of_int s.Net.Sentinel_client.events_sent /. dt)
        s.Net.Sentinel_client.flushes
    | None -> ());
    if (not status) && watch = None && drive = None then
      Printf.printf "ping: %.3f ms\n" (Net.Sentinel_client.ping client *. 1e3);
    Net.Sentinel_client.close client
  with
  | Net.Sentinel_client.Connection_failed msg ->
    Printf.eprintf "connection failed: %s\n" msg;
    exit exit_refused
  | Net.Sentinel_client.Version_mismatch { server; client } ->
    Printf.eprintf "protocol version mismatch: server v%d, client v%d\n" server
      client;
    exit exit_version
  | Net.Sentinel_client.Server_error { code; msg }
    when code = Net.Frame.err_degraded ->
    Printf.eprintf "server degraded: %s\n" msg;
    exit exit_degraded

(* Durability management: recover a store through the full pipeline (base
   snapshot + delta chain + WAL tail), optionally checkpoint or compact it,
   and report the on-disk durability state. *)
let cmd_wal db_path action wal_path delta keep_bytes keep_since =
  let wal_path =
    match wal_path with Some p -> p | None -> db_path ^ ".wal"
  in
  let db = Db.create () in
  let sys = System.create db in
  install_all db;
  System.register_action sys "count" (fun _ _ -> ());
  let r = Oodb.Wal.recover db ~snapshot:db_path ~wal:wal_path in
  System.rehydrate sys;
  let _wal = System.attach_wal sys wal_path in
  (match action with
  | "stats" -> ()
  | "checkpoint" ->
    let mode = if delta then `Delta else `Full in
    System.checkpoint ~mode sys ~snapshot:db_path;
    Printf.printf "%s checkpoint taken\n" (if delta then "delta" else "full")
  | "compact" ->
    let retention =
      match (keep_bytes, keep_since) with
      | Some b, _ -> Oodb.Wal.Keep_bytes b
      | None, Some s -> Oodb.Wal.Keep_since_seq s
      | None, None -> Oodb.Wal.Keep_none
    in
    System.compact_wal ~retention sys ~snapshot:db_path;
    Printf.printf "compacted %s into %s\n" wal_path db_path
  | other ->
    failwith
      (Printf.sprintf "unknown wal action %S (stats, checkpoint, compact)"
         other));
  System.detach_wal sys;
  let s = System.stats sys in
  Printf.printf "snapshot   %s: %d bytes%s\n" db_path s.System.snapshot_bytes
    (if r.Oodb.Wal.r_snapshot_loaded || action <> "stats" then ""
     else " (none on disk)");
  let chain = Oodb.Wal.delta_files ~snapshot:db_path () in
  Printf.printf "delta chain: %d element(s), %d applied at recovery\n"
    (List.length chain) r.Oodb.Wal.r_deltas_applied;
  List.iter
    (fun (p, prev, walseq) ->
      Printf.printf "  %s  prev=%d walseq=%d\n" p prev walseq)
    chain;
  Printf.printf
    "wal        %s: %d bytes, %d batch(es) past the last snapshot artifact\n"
    wal_path s.System.wal_bytes r.Oodb.Wal.r_batches_replayed;
  Printf.printf
    "durability: %d group seal(s), %d delta checkpoint(s), %d fsync(s)\n"
    s.System.group_commit_batches s.System.delta_checkpoints s.System.wal_fsyncs

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let scenario_arg =
  let doc = "Workload scenario (see $(b,scenarios))." in
  Arg.(value & opt string "market" & info [ "scenario"; "s" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let objects_arg =
  Arg.(
    value & opt int 100
    & info [ "objects"; "n" ] ~docv:"N" ~doc:"Number of monitored objects.")

let ops_arg =
  Arg.(
    value & opt int 10_000
    & info [ "ops" ] ~docv:"N" ~doc:"Number of workload operations.")

let path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Run a scenario and persist the database.")
    Term.(const cmd_generate $ path_arg $ scenario_arg $ seed_arg $ objects_arg $ ops_arg)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Summarize a persisted database (rules included).")
    Term.(const cmd_inspect $ path_arg)

let demo_cmd =
  let pos_scenario =
    Arg.(value & pos 0 string "market" & info [] ~docv:"SCENARIO")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a scenario in memory and report rule activity.")
    Term.(const cmd_demo $ pos_scenario)

let scenarios_cmd =
  Cmd.v
    (Cmd.info "scenarios" ~doc:"List available scenarios.")
    Term.(const cmd_scenarios $ const ())

let rules_cmd =
  let rules_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RULES_FILE")
  in
  let drive_ops =
    Arg.(
      value & opt int 0
      & info [ "drive" ] ~docv:"N" ~doc:"Run N random workload messages after loading.")
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:
         "Load declarative rules (rule/on/if/then blocks) into a store; \
          creates the store when FILE does not exist.")
    Term.(const cmd_rules $ path_arg $ rules_path $ drive_ops)

let query_cmd =
  let cls_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS") in
  let pred_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"PREDICATE")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Select objects from a persisted store, e.g. 'salary > 5000 and has mgr'.")
    Term.(const cmd_query $ path_arg $ cls_arg $ pred_arg)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Print the Sentinel / Ode / ADAM functionality comparison (paper §7).")
    Term.(const cmd_compare $ const ())

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a persisted store's internal consistency.")
    Term.(const cmd_verify $ path_arg)

let analyze_cmd =
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write the graph in DOT syntax.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static triggering-graph analysis of a store's rules.")
    Term.(const cmd_analyze $ path_arg $ dot_arg)

let dlq_cmd =
  let action_arg =
    Arg.(value & pos 1 string "list" & info [] ~docv:"ACTION"
         ~doc:"$(b,list), $(b,replay) or $(b,purge).")
  in
  Cmd.v
    (Cmd.info "dlq"
       ~doc:
         "Inspect, replay or purge the dead-letter queue of contained \
          failed rule firings.")
    Term.(const cmd_dlq $ path_arg $ action_arg)

let reinstate_cmd =
  let rule_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RULE")
  in
  Cmd.v
    (Cmd.info "reinstate"
       ~doc:
         "Close a quarantined rule's circuit breaker and put it back in \
          service.")
    Term.(const cmd_reinstate $ path_arg $ rule_arg)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a scenario with the metrics registry enabled and print \
          per-stage counters and latency percentiles.")
    Term.(const cmd_metrics $ scenario_arg $ seed_arg $ objects_arg $ ops_arg)

let trace_cmd =
  let txns_arg =
    Arg.(
      value & pos 0 int 10
      & info [] ~docv:"N" ~doc:"Number of deposit+withdraw transactions to trace.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the Chrome-trace JSON here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace banking cascades (send, routing, detection, scheduling, \
          firing under one trace id) and emit Chrome-trace-format JSON for \
          chrome://tracing or Perfetto.")
    Term.(const cmd_trace $ txns_arg $ out_arg)

let shards_cmd =
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of OID-sharded engine domains.")
  in
  let status_arg =
    Arg.(
      value & flag
      & info [ "status" ]
          ~doc:
            "Print the supervision status table: per-shard state \
             (ready/restarting/degraded), restarts, inbox depth, and the \
             pool's shed / dead-letter / timeout counters.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill" ] ~docv:"K"
          ~doc:
            "Chaos demo: kill shard K mid-batch and wait for the \
             supervisor to restart it before finishing the workload.")
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Run the payroll send workload through a supervised \
          domain-parallel OID-sharded pool and report throughput, \
          per-shard activity and supervision status.")
    Term.(
      const cmd_shards $ shards_arg $ objects_arg $ ops_arg $ status_arg
      $ kill_arg)

let ingest_cmd =
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Events per ingested batch ($(b,1) degenerates to per-event \
             ingestion — the baseline the E-ingest gate compares against).")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of OID-sharded engine domains.")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Drive the stock-market tick feed through the batched ingestion \
          pipeline (one transaction, one cascade trace and one \
          route-coalescing scope per batch; cross-shard sub-batches ship as \
          one message per destination) and report throughput and coalescing \
          counters.")
    Term.(
      const cmd_ingest $ shards_arg $ batch_arg $ objects_arg $ ops_arg
      $ seed_arg)

let wal_cmd =
  let action_arg =
    Arg.(value & pos 1 string "stats" & info [] ~docv:"ACTION"
         ~doc:"$(b,stats), $(b,checkpoint) or $(b,compact).")
  in
  let wal_path_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:"Log file (default: the snapshot path plus $(b,.wal)).")
  in
  let delta_arg =
    Arg.(
      value & flag
      & info [ "delta" ]
          ~doc:
            "With $(b,checkpoint): persist only the objects dirtied since \
             the last snapshot artifact instead of a full snapshot.")
  in
  let keep_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep-bytes" ] ~docv:"N"
          ~doc:
            "With $(b,compact): retain the largest suffix of whole batches \
             within N bytes of log tail.")
  in
  let keep_since_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep-since-seq" ] ~docv:"SEQ"
          ~doc:
            "With $(b,compact): retain every batch with sequence number at \
             or above SEQ.")
  in
  Cmd.v
    (Cmd.info "wal"
       ~doc:
         "Recover a store through snapshot + delta chain + log, optionally \
          checkpoint or compact it, and report WAL/snapshot sizes, the \
          delta chain and retention state.")
    Term.(
      const cmd_wal $ path_arg $ action_arg $ wal_path_arg $ delta_arg
      $ keep_bytes_arg $ keep_since_arg)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 7070
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to listen on ($(b,0) picks an ephemeral port).")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of OID-sharded engine domains behind the server.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the Sentinel network server: a shard pool populated with a \
          workload scenario, fronted by the length-prefixed binary protocol \
          (streaming ingestion, subscriptions, queries).")
    Term.(
      const cmd_serve $ port_arg $ shards_arg $ scenario_arg $ objects_arg
      $ seed_arg)

let connect_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port_arg =
    Arg.(
      value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let status_arg =
    Arg.(
      value & flag
      & info [ "status" ] ~doc:"Print the server's stats counters and exit.")
  in
  let watch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch" ] ~docv:"CLASS.METHOD"
          ~doc:
            "Subscribe to the method's primitive event and print each rule \
             firing for $(b,--duration) seconds.")
  in
  let drive_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "drive" ] ~docv:"CLASS.METHOD"
          ~doc:
            "Stream $(b,--ops) events at the class's objects in \
             $(b,--batch)-event Send_many frames and report throughput.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Events per Send_many frame.")
  in
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"How long $(b,--watch) listens before exiting.")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Connect to a running $(b,serve) instance: ping it, print its \
          stats, watch rule firings, or drive an event stream at it.  Exits \
          $(b,10) when the connection is refused, $(b,11) on a protocol \
          version mismatch, $(b,12) when the server reports a degraded \
          shard.")
    Term.(
      const cmd_connect $ host_arg $ port_arg $ status_arg $ watch_arg
      $ drive_arg $ ops_arg $ batch_arg $ duration_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "sentinel-cli" ~version:"1.0.0"
       ~doc:"Sentinel active object-oriented database, command-line driver.")
    [
      generate_cmd; inspect_cmd; demo_cmd; scenarios_cmd; rules_cmd;
      compare_cmd; query_cmd; verify_cmd; analyze_cmd; dlq_cmd; reinstate_cmd;
      metrics_cmd; trace_cmd; shards_cmd; ingest_cmd; wal_cmd; serve_cmd;
      connect_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

open Import
module C = Sentinel_classes

type routing = Indexed | Broadcast

type sys_stats = {
  mutable dispatched : int;
  mutable conditions_checked : int;
  mutable actions_executed : int;
  mutable rule_aborts : int;
  mutable candidates_probed : int;
  mutable leaves_offered : int;
  mutable index_hits : int;
  mutable batch_events : int;
  mutable coalesced_probes : int;
  mutable wal_batches_replayed : int;
  mutable wal_batches_discarded : int;
  mutable wal_checksum_failures : int;
  mutable wal_fsyncs : int;
  mutable wal_bytes : int;
  mutable snapshot_bytes : int;
  mutable group_commit_batches : int;
  mutable delta_checkpoints : int;
  mutable contained_failures : int;
  mutable quarantined_rules : int;
  mutable dead_letters : int;
  mutable retries : int;
  mutable traces_started : int;
  mutable spans_recorded : int;
}

type t = {
  sys_db : Db.t;
  sys_registry : Function_registry.t;
  rule_table : Rule.t Oid.Table.t;
  handlers : (Occurrence.t -> unit) Oid.Table.t;
  mutable sys_strategy : Scheduler.strategy;
  cascade_limit : int;
  mutable depth : int;
  (* Deferred firings for the current outermost transaction; the third
     component of the payload is the cascade trace id captured at enqueue
     time (0 when tracing was off), replayed at drain. *)
  mutable pending : (int * int * (Rule.t * Detector.instance * int)) list;
  mutable pending_txn : int option;
  mutable pending_hooked : bool;
  mutable seq : int;
  (* Bounded ring of execution failures (detached and contained). *)
  failures : (string * exn) Obs.Ring.t;
  (* Dead-letter OIDs, newest first; mirrors the __dead_letter extent (see
     [dead_letters] for how divergence after aborts is reconciled). *)
  mutable dlq : Oid.t list;
  dead_letter_limit : int;
  retry_backoff : int -> unit;
  mutable execution_hook :
    (Rule.t -> Detector.instance -> execution_outcome -> unit) option;
  (* The journal managed through [attach_wal]/[checkpoint]/[compact_wal];
     None when the embedder drives Wal directly (or not at all). *)
  mutable sys_wal : Wal.t option;
  sys_stats : sys_stats;
  (* [Some _] when delivery goes through the shared discrimination index
     (Events.Route); [None] is the legacy per-consumer broadcast path. *)
  sys_route : Route.t option;
  (* Rule-object bookkeeping attributes, resolved once against the __rule
     class (C.install has run by then) — firing bumps a slot instead of
     hashing an attribute name. *)
  sl_fired : Db.slot;
  sl_failure_streak : Db.slot;
  sl_quarantined : Db.slot;
}

and execution_outcome =
  | Fired
  | Condition_false
  | Aborted of string
  | Action_error of exn
  | Contained of exn
  | Quarantined of exn

let db t = t.sys_db
let registry t = t.sys_registry
let register_condition t = Function_registry.register_condition t.sys_registry

let register_action ?may_send t name f =
  Function_registry.register_action ?may_send t.sys_registry name f

let unregister_action t = Function_registry.unregister_action t.sys_registry
let strategy t = t.sys_strategy
let set_strategy t s = t.sys_strategy <- s

(* --- observability stages -------------------------------------------------- *)

(* Execution-layer stages and outcome counters; ids are interned symbols so
   [Obs.Metrics.find] works from the symbol table.  Rule execution and
   scheduler batches are rare relative to slot ops, so they are timed on
   every call (no sampling shift). *)
let st_execute = Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.execute") "rule.execute"
let st_sched = Obs.Metrics.register ~id:(Oodb.Symbol.intern "scheduler.batch") "scheduler.batch"
let st_fired = Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.fired") "rule.fired"
let st_cond_false =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.condition_false") "rule.condition_false"
let st_aborted = Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.aborted") "rule.aborted"
let st_error = Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.error") "rule.error"
let st_contained =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.contained") "rule.contained"
let st_quarantined =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "rule.quarantined") "rule.quarantined"

(* --- failure ring buffer -------------------------------------------------- *)

let log_failure t name e = Obs.Ring.push t.failures (name, e)
let recent_failures t = Obs.Ring.to_list_rev t.failures
let detached_failures t = Obs.Ring.to_list t.failures
let set_execution_hook t hook = t.execution_hook <- Some hook
let clear_execution_hook t = t.execution_hook <- None

let routing t = match t.sys_route with Some _ -> Indexed | None -> Broadcast
let route_index t = t.sys_route

(* Oldest first.  The cache can briefly hold OIDs whose creating transaction
   aborted (the dead letter died with it); filtering on existence here
   reconciles the cache with the committed extent. *)
let dead_letters t =
  t.dlq <- List.filter (Db.exists t.sys_db) t.dlq;
  List.rev t.dlq

let quarantined_rules t =
  Oid.Table.fold
    (fun oid r acc -> if r.Rule.quarantined then oid :: acc else acc)
    t.rule_table []
  |> List.sort Oid.compare

let stats t =
  (match t.sys_route with
  | Some route ->
    let c = Route.counters route in
    let s = t.sys_stats in
    s.candidates_probed <- c.Route.candidates_probed;
    s.leaves_offered <- c.Route.leaves_offered;
    s.index_hits <- c.Route.index_hits;
    s.batch_events <- c.Route.batch_events;
    s.coalesced_probes <- c.Route.coalesced_probes
  | None -> ());
  (* Durability counters live on the store; mirror them like the Route
     counters so one call reports the whole system. *)
  let d = Db.stats t.sys_db in
  let s = t.sys_stats in
  s.wal_batches_replayed <- d.Oodb.Types.wal_batches_replayed;
  s.wal_batches_discarded <- d.Oodb.Types.wal_batches_discarded;
  s.wal_checksum_failures <- d.Oodb.Types.wal_checksum_failures;
  s.wal_fsyncs <- d.Oodb.Types.wal_fsyncs;
  s.wal_bytes <- d.Oodb.Types.wal_bytes;
  s.snapshot_bytes <- d.Oodb.Types.snapshot_bytes;
  s.group_commit_batches <- d.Oodb.Types.group_commit_batches;
  s.delta_checkpoints <- d.Oodb.Types.delta_checkpoints;
  (* Containment gauges are derived from live state the same way. *)
  s.quarantined_rules <- List.length (quarantined_rules t);
  s.dead_letters <- List.length (dead_letters t);
  (* Tracing gauges come from the process-wide tracer. *)
  s.traces_started <- Obs.Trace.traces_started ();
  s.spans_recorded <- Obs.Trace.spans_recorded ();
  t.sys_stats

let reset_stats t =
  let s = t.sys_stats in
  s.dispatched <- 0;
  s.conditions_checked <- 0;
  s.actions_executed <- 0;
  s.rule_aborts <- 0;
  s.candidates_probed <- 0;
  s.leaves_offered <- 0;
  s.index_hits <- 0;
  s.batch_events <- 0;
  s.coalesced_probes <- 0;
  s.wal_batches_replayed <- 0;
  s.wal_batches_discarded <- 0;
  s.wal_checksum_failures <- 0;
  s.wal_fsyncs <- 0;
  s.wal_bytes <- 0;
  s.snapshot_bytes <- 0;
  s.group_commit_batches <- 0;
  s.delta_checkpoints <- 0;
  s.contained_failures <- 0;
  s.quarantined_rules <- 0;
  s.dead_letters <- 0;
  s.retries <- 0;
  s.traces_started <- 0;
  s.spans_recorded <- 0;
  Db.reset_stats t.sys_db;
  match t.sys_route with
  | Some route -> Route.reset_counters route
  | None -> ()

(* --- durability management ------------------------------------------------- *)

let no_wal () =
  raise (Errors.Transaction_error "System: no journal attached (attach_wal)")

let attach_wal ?storage ?sync ?group_commit t path =
  let wal = Wal.attach ?storage ?sync ?group_commit t.sys_db path in
  t.sys_wal <- Some wal;
  wal

let wal t = t.sys_wal

let detach_wal t =
  match t.sys_wal with
  | None -> ()
  | Some w ->
    Wal.detach w;
    t.sys_wal <- None

let checkpoint ?mode t ~snapshot =
  match t.sys_wal with Some w -> Wal.checkpoint ?mode w ~snapshot | None -> no_wal ()

let compact_wal ?retention t ~snapshot =
  match t.sys_wal with Some w -> Wal.compact ?retention w ~snapshot | None -> no_wal ()

let sync_wal t = match t.sys_wal with Some w -> Wal.sync w | None -> no_wal ()

(* Class subsumption backed by the schema; synthetic classes (the detector's
   "<clock>") only match themselves. *)
let subsumes_of db ~sub ~super =
  String.equal sub super
  || Db.has_class db sub
     && Db.has_class db super
     && Oodb.Schema.is_subclass db ~sub ~super

(* --- delivery registration ------------------------------------------------ *)

(* Indexed mode: put the rule's detector leaves in the shared index.  The
   guard covers rules whose object vanished underneath the runtime (deleted
   mid-flight, or creation rolled back); enable/disable and the quarantine
   breaker register and unregister outright so out-of-service rules are not
   even probed. *)
let register_rule t rule =
  match t.sys_route with
  | None -> ()
  | Some route ->
    if rule.Rule.enabled && not rule.Rule.quarantined then begin
      let oid = rule.Rule.oid in
      Route.register route ~consumer:oid
        ~guard:(fun () ->
          rule.Rule.enabled && (not rule.Rule.quarantined)
          && Db.exists t.sys_db oid)
        ~on_receive:(fun occ ->
          t.sys_stats.dispatched <- t.sys_stats.dispatched + 1;
          Notifiable.record rule.Rule.recorder occ)
        rule.Rule.detector
    end

let unregister_rule t oid =
  match t.sys_route with
  | None -> ()
  | Some route -> Route.unregister route oid

(* --- fault containment ---------------------------------------------------- *)

let report t rule inst outcome =
  if !Obs.armed then begin
    (match outcome with
    | Fired -> Obs.Metrics.hit st_fired
    | Condition_false -> Obs.Metrics.hit st_cond_false
    | Aborted _ -> Obs.Metrics.hit st_aborted
    | Action_error _ -> Obs.Metrics.hit st_error
    | Contained _ ->
      Obs.Metrics.hit st_contained;
      Obs.Trace.instant "contained" rule.Rule.name
    | Quarantined _ ->
      Obs.Metrics.hit st_quarantined;
      Obs.Trace.instant "quarantined" rule.Rule.name)
  end;
  match t.execution_hook with
  | Some hook -> hook rule inst outcome
  | None -> ()

(* Every cache mutation rolls back with the transaction it ran in: the
   object creations/deletions it mirrors are undo-logged, and the
   existence filter in [dead_letters] can only drop entries, never
   resurrect evicted ones. *)
let set_dlq t dlq =
  let old = t.dlq in
  Transaction.on_abort t.sys_db (fun () -> t.dlq <- old);
  t.dlq <- dlq

(* Append to the bounded persistent dead-letter queue, evicting the oldest
   entries beyond the cap.  Inside a transaction the dead letter commits (or
   dies) with its host — the durable queue reflects committed history only,
   like the audit trail; detached failures append post-abort, outside any
   transaction, and are durable at once. *)
let append_dead_letter t rule inst e ~attempts =
  let db = t.sys_db in
  let keep = t.dead_letter_limit - 1 in
  if List.length t.dlq > keep then begin
    let doomed = List.filteri (fun i _ -> i >= keep) t.dlq in
    set_dlq t (List.filteri (fun i _ -> i < keep) t.dlq);
    List.iter
      (fun o -> if Db.exists db o then Db.delete_object db o)
      doomed
  end;
  let dl =
    Db.new_object db C.dead_letter_class
      ~attrs:
        [
          (C.a_rule, Value.Obj rule.Rule.oid);
          (C.a_name, Value.Str rule.Rule.name);
          (C.a_instance, Value.Str (Codec.encode_instance inst));
          (C.a_error, Value.Str (Printexc.to_string e));
          (C.a_attempts, Value.Int attempts);
          (C.a_at, Value.Int inst.Detector.t_end);
        ]
  in
  set_dlq t (dl :: t.dlq)

(* In-memory breaker state ([failure_streak], [quarantined], and the index
   registration gated on them) shadows the persistent a_failure_streak /
   a_quarantined attributes.  Each mutation made inside a transaction logs
   an abort hook restoring the previous runtime state, so that when the
   host transaction rolls the attributes back, the runtime follows —
   otherwise an aborted transaction would leave a rule silently
   quarantined/unregistered with no committed record of why. *)
let set_streak t rule streak =
  let old = rule.Rule.failure_streak in
  Transaction.on_abort t.sys_db (fun () -> rule.Rule.failure_streak <- old);
  rule.Rule.failure_streak <- streak;
  if Db.exists t.sys_db rule.Rule.oid then
    Db.slot_set t.sys_db rule.Rule.oid t.sl_failure_streak (Value.Int streak)

let note_success t rule =
  if rule.Rule.failure_streak <> 0 then set_streak t rule 0

let trip_breaker t rule =
  Transaction.on_abort t.sys_db (fun () ->
      rule.Rule.quarantined <- false;
      register_rule t rule);
  rule.Rule.quarantined <- true;
  unregister_rule t rule.Rule.oid;
  if Db.exists t.sys_db rule.Rule.oid then
    Db.slot_set t.sys_db rule.Rule.oid t.sl_quarantined (Value.Bool true)

(* A firing failed and the rule's policy contains it: log, dead-letter,
   advance the breaker, and report the containment decision to the hook.
   The failed firing ran in (and was rolled back with) a transaction of its
   own, taking the body's a_fired write with it; the runtime [fired]
   counter deliberately still counts the attempt (a quarantine threshold of
   n means n attempts, not n persisted firings), so re-sync the attribute
   here, next to the rest of the breaker bookkeeping. *)
let contain_failure t rule inst e ~attempts =
  log_failure t rule.Rule.name e;
  t.sys_stats.contained_failures <- t.sys_stats.contained_failures + 1;
  if Db.exists t.sys_db rule.Rule.oid then
    Db.slot_set t.sys_db rule.Rule.oid t.sl_fired (Value.Int rule.Rule.fired);
  set_streak t rule (rule.Rule.failure_streak + 1);
  append_dead_letter t rule inst e ~attempts;
  match rule.Rule.policy with
  | Error_policy.Quarantine n when rule.Rule.failure_streak >= n ->
    trip_breaker t rule;
    report t rule inst (Quarantined e)
  | _ -> report t rule inst (Contained e)

(* --- execution ----------------------------------------------------------- *)

(* Condition + action with no enabled/quarantine gates: the shared body of
   gated execution and dead-letter replay.  Reports Fired / Condition_false
   / Aborted itself; a generic exception escapes unreported — the caller's
   policy layer decides whether it is an Action_error (propagated),
   Contained or Quarantined. *)
let execute_body_raw t rule inst =
  if t.depth >= t.cascade_limit then
    raise
      (Errors.Rule_abort
         (Printf.sprintf "rule cascade exceeded limit %d (at rule %S)"
            t.cascade_limit rule.Rule.name));
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () -> t.depth <- t.depth - 1)
    (fun () ->
      t.sys_stats.conditions_checked <- t.sys_stats.conditions_checked + 1;
      if rule.Rule.condition t.sys_db inst then begin
        t.sys_stats.actions_executed <- t.sys_stats.actions_executed + 1;
        rule.Rule.fired <- rule.Rule.fired + 1;
        (* Keep the persistent firing counter in step.  The existence guard
           matters: the condition just ran arbitrary code that may have
           deleted the rule object (even the rule deleting itself). *)
        if Db.exists t.sys_db rule.Rule.oid then
          Db.slot_set t.sys_db rule.Rule.oid t.sl_fired (Value.Int rule.Rule.fired);
        match rule.Rule.action t.sys_db inst with
        | () -> report t rule inst Fired; note_success t rule
        | exception (Errors.Rule_abort msg as e) ->
          t.sys_stats.rule_aborts <- t.sys_stats.rule_aborts + 1;
          report t rule inst (Aborted msg);
          raise e
      end
      else begin
        report t rule inst Condition_false;
        note_success t rule
      end)

(* Gated wrapper: a "fire" span (labelled with the rule name) plus an
   end-to-end latency sample around condition + action, including any
   immediate cascade the action triggers. *)
let execute_body t rule inst =
  if not !Obs.armed then execute_body_raw t rule inst
  else begin
    let t0 = Obs.Metrics.enter st_execute in
    let tok = Obs.Trace.enter "fire" rule.Rule.name in
    match execute_body_raw t rule inst with
    | () ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_execute t0
    | exception e ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_execute t0;
      raise e
  end

(* Immediate/deferred entry point: gates, then the rule's error policy.
   Rule_abort is an intentional abort and always propagates.

   Propagate runs on the direct path: an exception aborts the host
   transaction, which rolls back the firing's partial writes along with
   everything else.  Contain/Quarantine keep the host alive, so the firing
   runs in a nested transaction of its own: a contained failure first rolls
   back whatever the half-finished condition/action wrote, and only the
   dead letter (recording a clean slate that [replay_dead_letter] can
   re-run without double-applying) survives into the host. *)
let execute t rule inst =
  if
    rule.Rule.enabled
    && (not rule.Rule.quarantined)
    && Db.exists t.sys_db rule.Rule.oid
  then
    match rule.Rule.policy with
    | Error_policy.Propagate -> (
      match execute_body t rule inst with
      | () -> ()
      | exception (Errors.Rule_abort _ as e) -> raise e
      | exception e ->
        report t rule inst (Action_error e);
        raise e)
    | Error_policy.Contain | Error_policy.Quarantine _ -> (
      match
        Transaction.atomically t.sys_db (fun () -> execute_body t rule inst)
      with
      | Ok () -> ()
      | Error (Errors.Rule_abort _ as e) -> raise e
      | Error e -> contain_failure t rule inst e ~attempts:1)

(* Detached entry point: each attempt runs in its own transaction; a failed
   attempt (the transaction aborted) is retried up to the rule's bounded
   retry budget with backoff between attempts, then handed to the error
   policy.  Detached failures never propagate to the application — there is
   no caller left to propagate to — so Propagate degenerates to logging, the
   pre-containment behaviour. *)
let run_detached t rule inst =
  if
    rule.Rule.enabled
    && (not rule.Rule.quarantined)
    && Db.exists t.sys_db rule.Rule.oid
  then begin
    let max_attempts = 1 + max 0 rule.Rule.max_retries in
    let rec go attempt =
      match
        Transaction.atomically t.sys_db (fun () -> execute_body t rule inst)
      with
      | Ok () -> ()
      | Error (Errors.Rule_abort _ as e) ->
        (* The action aborted its own detached transaction on purpose; not a
           fault, so no retry, no dead letter, no breaker. *)
        log_failure t rule.Rule.name e
      | Error e ->
        if attempt < max_attempts then begin
          t.sys_stats.retries <- t.sys_stats.retries + 1;
          t.retry_backoff attempt;
          go (attempt + 1)
        end
        else begin
          match rule.Rule.policy with
          | Error_policy.Propagate ->
            log_failure t rule.Rule.name e;
            report t rule inst (Action_error e)
          | Error_policy.Contain | Error_policy.Quarantine _ ->
            contain_failure t rule inst e ~attempts:max_attempts
        end
    in
    go 1
  end

(* An ordered deferred batch keeps going past contained failures: only a
   propagated exception (or Rule_abort) escapes [execute] and takes the
   remaining firings down with the aborting transaction. *)
let rec drain_pending t =
  match t.pending with
  | [] -> ()
  | entries ->
    t.pending <- [];
    let batch = Scheduler.order t.sys_strategy (List.rev entries) in
    if not !Obs.armed then
      List.iter (fun (rule, inst, _tr) -> execute t rule inst) batch
    else begin
      let t0 = Obs.Metrics.enter st_sched in
      (match
         List.iter
           (fun (rule, inst, tr) ->
             (* Re-enter the cascade the firing was deferred from, and mark
                the scheduling decision with its own span. *)
             Obs.Trace.with_trace tr (fun () ->
                 let tok = Obs.Trace.enter "schedule" rule.Rule.name in
                 match execute t rule inst with
                 | () -> Obs.Trace.exit tok
                 | exception e -> Obs.Trace.exit tok; raise e))
           batch
       with
      | () -> Obs.Metrics.exit st_sched t0
      | exception e -> Obs.Metrics.exit st_sched t0; raise e)
    end;
    drain_pending t

let enqueue_deferred t rule inst =
  let outer = Transaction.outermost_id t.sys_db in
  if t.pending_txn <> outer then begin
    (* A previous transaction ended without draining (it aborted); its
       queued firings die with it. *)
    t.pending <- [];
    t.pending_hooked <- false;
    t.pending_txn <- outer
  end;
  (* If the innermost transaction aborts (e.g. a contained firing rolled
     back after triggering this one), the enqueue — and, when this call
     registered it, the drain hook, which dies with that transaction —
     must roll back too, or the firing would outlive its trigger (or, for
     later enqueues in the same outer transaction, never drain at all). *)
  (let old_pending = t.pending
   and old_hooked = t.pending_hooked
   and old_txn = t.pending_txn in
   Transaction.on_abort t.sys_db (fun () ->
       t.pending <- old_pending;
       t.pending_hooked <- old_hooked;
       t.pending_txn <- old_txn));
  t.seq <- t.seq + 1;
  t.pending <-
    (rule.Rule.priority, t.seq, (rule, inst, Obs.Trace.current ())) :: t.pending;
  if !Obs.Trace.on then Obs.Trace.instant "defer" rule.Rule.name;
  if not t.pending_hooked then begin
    t.pending_hooked <- true;
    Transaction.add_deferred t.sys_db (fun () ->
        t.pending_hooked <- false;
        t.pending_txn <- None;
        drain_pending t)
  end

let fire t rule inst =
  match rule.Rule.coupling with
  | Coupling.Immediate -> execute t rule inst
  | Coupling.Deferred ->
    if Transaction.in_progress t.sys_db then enqueue_deferred t rule inst
    else execute t rule inst
  | Coupling.Detached ->
    if Transaction.in_progress t.sys_db then begin
      (* The closure runs after commit, outside the dynamic extent of the
         triggering send; carry the cascade trace id across the gap. *)
      let tr = Obs.Trace.current () in
      Transaction.add_detached t.sys_db (fun () ->
          Obs.Trace.with_trace tr (fun () -> run_detached t rule inst))
    end
    else run_detached t rule inst

(* --- delivery ------------------------------------------------------------ *)

let dispatch t _db ~consumer occ =
  t.sys_stats.dispatched <- t.sys_stats.dispatched + 1;
  match Oid.Table.find_opt t.rule_table consumer with
  | Some rule -> if Db.exists t.sys_db rule.Rule.oid then Rule.deliver rule occ
  | None -> (
    match Oid.Table.find_opt t.handlers consumer with
    | Some handler -> handler occ
    | None -> () (* stale subscription; ignore *))

(* Jittered exponential backoff between detached retry attempts: uniform in
   [1ms, 2ms], [2ms, 4ms], ... capped at 32ms (Error_policy.retry_delay), so
   a mass failure — many rules hitting the same broken dependency in one
   batch — spreads its retries instead of hammering in lockstep.  This
   *blocks the committing caller* — detached firings run synchronously right
   after the outermost commit — which is why the cap is low and the whole
   thing overridable (e.g. to a no-op) for tests, benches and
   throughput-sensitive applications. *)
let default_retry_backoff = Error_policy.jittered_backoff ()

let create ?(strategy = Scheduler.default) ?(cascade_limit = 64)
    ?(routing = Indexed) ?(failure_log_limit = 128) ?(dead_letter_limit = 256)
    ?(retry_backoff = default_retry_backoff) db =
  C.install db;
  let t =
    {
      sys_db = db;
      sys_registry = Function_registry.create ();
      rule_table = Oid.Table.create 64;
      handlers = Oid.Table.create 16;
      sys_strategy = strategy;
      cascade_limit;
      depth = 0;
      pending = [];
      pending_txn = None;
      pending_hooked = false;
      seq = 0;
      failures = Obs.Ring.create (max 0 failure_log_limit);
      dlq = [];
      dead_letter_limit = max 1 dead_letter_limit;
      retry_backoff;
      execution_hook = None;
      sys_wal = None;
      sys_stats =
        {
          dispatched = 0;
          conditions_checked = 0;
          actions_executed = 0;
          rule_aborts = 0;
          candidates_probed = 0;
          leaves_offered = 0;
          index_hits = 0;
          batch_events = 0;
          coalesced_probes = 0;
          wal_batches_replayed = 0;
          wal_batches_discarded = 0;
          wal_checksum_failures = 0;
          wal_fsyncs = 0;
          wal_bytes = 0;
          snapshot_bytes = 0;
          group_commit_batches = 0;
          delta_checkpoints = 0;
          contained_failures = 0;
          quarantined_rules = 0;
          dead_letters = 0;
          retries = 0;
          traces_started = 0;
          spans_recorded = 0;
        };
      sys_route =
        (match routing with
        | Indexed -> Some (Route.create db)
        | Broadcast -> None);
      sl_fired = Db.resolve db C.rule_class C.a_fired;
      sl_failure_streak = Db.resolve db C.rule_class C.a_failure_streak;
      sl_quarantined = Db.resolve db C.rule_class C.a_quarantined;
    }
  in
  (* On a reloaded store, adopt whatever dead letters survive from earlier
     runs (newest first, matching append order). *)
  t.dlq <- List.rev (List.sort Oid.compare (Db.extent db C.dead_letter_class));
  Db.set_notify db (dispatch t);
  (match t.sys_route with
  | Some route -> Db.set_route db (Some (fun _db o occ -> Route.deliver route o occ))
  | None -> Db.set_route db None);
  t

(* --- event objects -------------------------------------------------------- *)

let create_event t ?(name = "") expr =
  Db.new_object t.sys_db C.event_class
    ~attrs:[ (C.a_name, Value.Str name); (C.a_event, Value.Str (Codec.encode expr)) ]

let event_expr t oid =
  if not (Db.is_instance_of t.sys_db oid C.event_class) then
    Errors.type_error "%s is not an event object" (Oid.to_string oid);
  Codec.decode (Value.to_str (Db.get t.sys_db oid C.a_event))

(* --- rules ---------------------------------------------------------------- *)

let build_runtime t ~oid ~name ~event ~context ~coupling ~priority ~enabled
    ~policy ~max_retries ~condition_name ~condition ~action_name ~action =
  let rule =
    Rule.make ~oid ~name ~event ~context
      ~subsumes:(fun ~sub ~super -> subsumes_of t.sys_db ~sub ~super)
      ~coupling ~priority ~enabled ~policy ~max_retries ~condition_name
      ~condition ~action_name ~action ~fire:(fire t)
  in
  Oid.Table.replace t.rule_table oid rule;
  register_rule t rule;
  rule

let fresh_rule_name t = Printf.sprintf "rule-%d" (Oid.Table.length t.rule_table + 1)

(* Run [f] in a transaction of its own unless one is open, so that a crash
   (with a WAL attached, the transaction is one log batch) or a failure
   never leaves a rule half created or half deleted. *)
let in_own_transaction db f =
  if Transaction.in_progress db then f ()
  else match Transaction.atomically db f with Ok v -> v | Error e -> raise e

let create_rule_common t ?name ?(coupling = Coupling.Immediate)
    ?(context = Context.Recent) ?(priority = 0) ?(enabled = true)
    ?(policy = Error_policy.Propagate) ?(max_retries = 0) ?(monitor = [])
    ?(monitor_classes = []) ~event ~event_ref ~condition ~action () =
  let name = match name with Some n -> n | None -> fresh_rule_name t in
  (* Fail on unknown functions before creating the object. *)
  let condition_fn = Function_registry.find_condition t.sys_registry condition
  and action_fn = Function_registry.find_action t.sys_registry action in
  in_own_transaction t.sys_db @@ fun () ->
  let oid =
    Db.new_object t.sys_db C.rule_class
      ~attrs:
        [
          (C.a_name, Value.Str name);
          (C.a_event, Value.Str (Codec.encode event));
          ( C.a_event_ref,
            match event_ref with Some o -> Value.Obj o | None -> Value.Null );
          (C.a_condition, Value.Str condition);
          (C.a_action, Value.Str action);
          (C.a_coupling, Value.Str (Coupling.to_string coupling));
          (C.a_context, Value.Str (Context.to_string context));
          (C.a_priority, Value.Int priority);
          (C.a_enabled, Value.Bool enabled);
          (C.a_fired, Value.Int 0);
          (C.a_policy, Value.Str (Error_policy.to_string policy));
          (C.a_max_retries, Value.Int max_retries);
          (C.a_failure_streak, Value.Int 0);
          (C.a_quarantined, Value.Bool false);
        ]
  in
  ignore
    (build_runtime t ~oid ~name ~event ~context ~coupling ~priority ~enabled
       ~policy ~max_retries ~condition_name:condition ~condition:condition_fn
       ~action_name:action ~action:action_fn);
  List.iter (fun target -> Db.subscribe t.sys_db ~reactive:target ~consumer:oid) monitor;
  List.iter (fun cls -> Db.subscribe_class t.sys_db ~cls ~consumer:oid) monitor_classes;
  oid

let create_rule t ?name ?coupling ?context ?priority ?enabled ?policy
    ?max_retries ?monitor ?monitor_classes ~event ~condition ~action () =
  create_rule_common t ?name ?coupling ?context ?priority ?enabled ?policy
    ?max_retries ?monitor ?monitor_classes ~event ~event_ref:None ~condition
    ~action ()

let create_rule_on t ?name ?coupling ?context ?priority ?enabled ?policy
    ?max_retries ?monitor ?monitor_classes ~event_obj ~condition ~action () =
  let event = event_expr t event_obj in
  create_rule_common t ?name ?coupling ?context ?priority ?enabled ?policy
    ?max_retries ?monitor ?monitor_classes ~event ~event_ref:(Some event_obj)
    ~condition ~action ()

let rule_info t oid =
  match Oid.Table.find_opt t.rule_table oid with
  | Some r -> r
  | None -> Errors.type_error "%s has no rule runtime" (Oid.to_string oid)

let subscribe t ~rule ~to_ =
  ignore (rule_info t rule);
  Db.subscribe t.sys_db ~reactive:to_ ~consumer:rule

let unsubscribe t ~rule ~from =
  Db.unsubscribe t.sys_db ~reactive:from ~consumer:rule

let subscribe_class t ~rule ~cls =
  ignore (rule_info t rule);
  Db.subscribe_class t.sys_db ~cls ~consumer:rule

let unsubscribe_class t ~rule ~cls =
  Db.unsubscribe_class t.sys_db ~cls ~consumer:rule

(* Enable/disable go through message dispatch so that rule objects generate
   their own primitive events — rules can monitor rules. *)
let enable t oid =
  let r = rule_info t oid in
  r.Rule.enabled <- true;
  register_rule t r;
  ignore (Db.send t.sys_db oid "enable" [])

let disable t oid =
  let r = rule_info t oid in
  r.Rule.enabled <- false;
  unregister_rule t oid;
  ignore (Db.send t.sys_db oid "disable" [])

(* Close a tripped circuit breaker: the operator has (presumably) fixed the
   underlying fault.  Clears the streak so the rule gets a full [Quarantine n]
   budget again.  A no-op for rules that are not quarantined beyond resetting
   the streak. *)
let reinstate t oid =
  let r = rule_info t oid in
  let was_quarantined = r.Rule.quarantined
  and old_streak = r.Rule.failure_streak in
  (* Mirror of [trip_breaker]: if the enclosing transaction aborts, the
     attribute writes revert, so the runtime breaker must revert with
     them. *)
  Transaction.on_abort t.sys_db (fun () ->
      r.Rule.quarantined <- was_quarantined;
      r.Rule.failure_streak <- old_streak;
      if was_quarantined then unregister_rule t oid);
  r.Rule.quarantined <- false;
  r.Rule.failure_streak <- 0;
  if Db.exists t.sys_db oid then begin
    Db.set t.sys_db oid C.a_quarantined (Value.Bool false);
    Db.set t.sys_db oid C.a_failure_streak (Value.Int 0)
  end;
  register_rule t r

let set_priority t oid p =
  let r = rule_info t oid in
  r.Rule.priority <- p;
  Db.set t.sys_db oid C.a_priority (Value.Int p)

let prune_runtimes t =
  let stale =
    Oid.Table.fold
      (fun oid _ acc -> if Db.exists t.sys_db oid then acc else oid :: acc)
      t.rule_table []
  in
  List.iter
    (fun oid ->
      Oid.Table.remove t.rule_table oid;
      unregister_rule t oid)
    stale

(* The rule leaves the route, every consumer list it was on and the heap,
   in one transaction (its own when none is open): a rollback brings back
   its object, its subscriptions and its runtime. *)
let delete_rule t oid =
  let rule = rule_info t oid in
  let db = t.sys_db in
  in_own_transaction db @@ fun () ->
  Oid.Table.remove t.rule_table oid;
  unregister_rule t oid;
  Transaction.on_abort db (fun () ->
      Oid.Table.replace t.rule_table oid rule;
      register_rule t rule);
  Db.unsubscribe_all db ~consumer:oid;
  Db.delete_object db oid

let rules t = Array.to_list (Oid.sorted_keys t.rule_table)

let find_rule t name =
  let found =
    Oid.Table.fold
      (fun oid r acc ->
        if String.equal r.Rule.name name then oid :: acc else acc)
      t.rule_table []
  in
  match List.sort Oid.compare found with [] -> None | oid :: _ -> Some oid

(* --- dead-letter operations ------------------------------------------------ *)

(* Re-run a failed firing in its own transaction.  Deliberately bypasses the
   enabled/quarantine gates: replay is an operator action, and draining the
   queue of a quarantined rule (after fixing its action) is exactly the
   workflow the breaker exists to support. *)
let replay_dead_letter t dl =
  if not (Db.is_instance_of t.sys_db dl C.dead_letter_class) then
    Errors.type_error "%s is not a dead letter" (Oid.to_string dl);
  let rule_oid =
    match Db.get t.sys_db dl C.a_rule with
    | Value.Obj o -> o
    | _ -> Errors.type_error "dead letter %s has no rule" (Oid.to_string dl)
  in
  match Oid.Table.find_opt t.rule_table rule_oid with
  | None ->
    Error
      (Errors.Type_error
         (Printf.sprintf "rule %s of dead letter %s has no runtime (deleted?)"
            (Oid.to_string rule_oid) (Oid.to_string dl)))
  | Some rule -> (
    let inst =
      Codec.decode_instance (Value.to_str (Db.get t.sys_db dl C.a_instance))
    in
    match
      Transaction.atomically t.sys_db (fun () -> execute_body t rule inst)
    with
    | Ok () ->
      set_dlq t (List.filter (fun o -> not (Oid.equal o dl)) t.dlq);
      if Db.exists t.sys_db dl then Db.delete_object t.sys_db dl;
      Ok ()
    | Error e ->
      let attempts = Value.to_int (Db.get t.sys_db dl C.a_attempts) in
      Db.set t.sys_db dl C.a_attempts (Value.Int (attempts + 1));
      Error e)

let purge_dead_letters t =
  let all = dead_letters t in
  List.iter (Db.delete_object t.sys_db) all;
  set_dlq t [];
  List.length all

(* --- ad-hoc notifiables ---------------------------------------------------- *)

(* Handlers have no leaves to index, so in indexed mode they get a wildcard
   registration: every occurrence they are subscribed to reaches them. *)
let register_handler t oid handler =
  Oid.Table.replace t.handlers oid handler;
  match t.sys_route with
  | None -> ()
  | Some route ->
    Route.register_wildcard route ~consumer:oid (fun occ ->
        t.sys_stats.dispatched <- t.sys_stats.dispatched + 1;
        handler occ)

let create_notifiable t ?(name = "") handler =
  let oid =
    Db.new_object t.sys_db C.notifiable_class ~attrs:[ (C.a_name, Value.Str name) ]
  in
  register_handler t oid handler;
  oid

let attach_handler t oid handler =
  if not (Db.is_instance_of t.sys_db oid C.notifiable_class) then
    Errors.type_error "%s is not a notifiable object" (Oid.to_string oid);
  register_handler t oid handler

(* --- time, rehydration ------------------------------------------------------ *)

(* Expiry only drops buffered state, so the walk's order cannot be seen. *)
let expire_partial_state t ~max_age =
  let before = Db.now t.sys_db - max_age in
  Oid.Table.iter
    (fun _ r -> Detector.expire r.Rule.detector ~before)
    t.rule_table

(* Rules are advanced in ascending OID (creation) order, so the periodic
   and relative firings one call releases run in that order.  A rule that
   a firing deletes is skipped; one it creates waits for the next call. *)
let advance_time t now =
  Db.advance_clock t.sys_db now;
  Array.iter
    (fun oid ->
      match Oid.Table.find_opt t.rule_table oid with
      | Some r when r.Rule.enabled -> Detector.advance r.Rule.detector now
      | _ -> ())
    (Oid.sorted_keys t.rule_table)

(* --- batched ingestion ------------------------------------------------------ *)

(* Batch-size distribution (power-of-two buckets reused as counts) and an
   events counter, so ingestion rate and typical batch size are readable
   from the metrics report without the caller keeping its own tallies. *)
let st_ingest =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "system.ingest") "system.ingest"

let st_ingest_batch_size =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "system.ingest.batch_size")
    "system.ingest.batch_size"

let st_ingest_events =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "system.ingest.events")
    "system.ingest.events"

(* One transaction, one cascade trace, one route-key-coalescing scope for
   the whole batch.  The deferred firings the batch triggers drain at this
   transaction's commit — inside the "ingest" span, so the entire cascade
   (sends, immediate firings, deferred drain) shares one trace.  Detached
   firings still run after the outermost commit, as always. *)
let ingest t batch =
  match batch with
  | [] -> Ok []
  | _ ->
    let run () =
      let send () = Db.send_many t.sys_db batch in
      match t.sys_route with
      | Some route -> Route.with_batch route send
      | None -> send ()
    in
    if not !Obs.armed then Transaction.atomically t.sys_db run
    else begin
      let n = List.length batch in
      let t0 = Obs.Metrics.enter st_ingest in
      let tok = Obs.Trace.enter "ingest" (Printf.sprintf "batch:%d" n) in
      Obs.Metrics.observe_ns st_ingest_batch_size (float_of_int n);
      Obs.Metrics.add st_ingest_events n;
      let r = Transaction.atomically t.sys_db run in
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_ingest t0;
      r
    end

let rehydrate t =
  let restore oid =
    if not (Oid.Table.mem t.rule_table oid) then begin
      let get a = Db.get t.sys_db oid a in
      (* Containment attrs default when absent: stores written before the
         error-policy layer existed rehydrate as Propagate rules. *)
      let get_or a d =
        match Db.get_opt t.sys_db oid a with Some v -> v | None -> d
      in
      let quarantined =
        Value.to_bool (get_or C.a_quarantined (Value.Bool false))
      in
      let condition_name = Value.to_str (get C.a_condition)
      and action_name = Value.to_str (get C.a_action) in
      let rule =
        build_runtime t ~oid
          ~name:(Value.to_str (get C.a_name))
          ~event:(Codec.decode (Value.to_str (get C.a_event)))
          ~context:(Context.of_string (Value.to_str (get C.a_context)))
          ~coupling:(Coupling.of_string (Value.to_str (get C.a_coupling)))
          ~priority:(Value.to_int (get C.a_priority))
          ~enabled:(Value.to_bool (get C.a_enabled))
          ~policy:
            (Error_policy.of_string
               (Value.to_str (get_or C.a_policy (Value.Str "propagate"))))
          ~max_retries:(Value.to_int (get_or C.a_max_retries (Value.Int 0)))
          ~condition_name ~action_name
          ~condition:(Function_registry.find_condition t.sys_registry condition_name)
          ~action:(Function_registry.find_action t.sys_registry action_name)
      in
      rule.Rule.fired <- Value.to_int (get C.a_fired);
      rule.Rule.failure_streak <-
        Value.to_int (get_or C.a_failure_streak (Value.Int 0));
      if quarantined then begin
        (* build_runtime registered the rule before we knew it was tripped;
           set the breaker and take it back out of the index. *)
        rule.Rule.quarantined <- true;
        unregister_rule t oid
      end
    end
  in
  List.iter restore (Db.extent t.sys_db C.rule_class);
  (* Adopt dead letters persisted by earlier runs (newest first). *)
  t.dlq <-
    List.rev (List.sort Oid.compare (Db.extent t.sys_db C.dead_letter_class))

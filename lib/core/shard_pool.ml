open Import

(* Domain-parallel execution: N shards, each a full {!System} (database,
   WAL, detectors, scheduler) owned by one domain.  The only process-wide
   state a shard touches is the symbol table and the Obs layer, both
   domain-safe; everything stateful about objects and rules lives inside
   exactly one shard, so shards never contend on data — they exchange
   messages.

   Routing invariant: shard [i] of [n] allocates OIDs congruent to
   [i mod n] (Db.configure_shard), so [Oid.to_int oid mod n] names the
   owner and a send can always be routed without a directory.

   Failure discipline (see DESIGN.md "failure model"): inboxes are bounded
   and overflow is governed by a per-pool backpressure policy; a supervisor
   domain watches per-shard liveness (an [alive] flag written by the worker)
   and progress (a [busy_since] heartbeat timestamp refreshed at every job
   boundary), tears down a dead or wedged shard, and restarts a fresh engine
   on the same OID stride — the user-supplied [init] re-runs, which is where
   per-shard [Wal.recover] lives, so acknowledged commits survive the
   restart.  The message being executed when a shard died is dead-lettered
   (re-running it would kill the successor too); the messages behind it stay
   queued for the successor.  Restarts are budgeted: too many inside a window
   and the shard is degraded — sends to it fail fast with a typed error
   until an operator calls [reinstate]. *)

(* --- observability -------------------------------------------------------- *)

let st_restart =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "shard.restart") "shard.restart"

let st_degraded =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "shard.degraded")
    "shard.degraded"

let st_wedge =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "shard.wedge") "shard.wedge"

let st_shed =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "shard.shed") "shard.shed"

let st_dead_letter =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "shard.dead_letter")
    "shard.dead_letter"

let st_timeout =
  Obs.Metrics.register ~id:(Oodb.Symbol.intern "shard.timeout") "shard.timeout"

(* duration histogram of one supervisor sweep over every shard *)
let st_supervise =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "shard.supervise")
    "shard.supervise"

(* value histogram: inbox depth observed at each supervisor sweep *)
let st_inbox_depth =
  Obs.Metrics.register
    ~id:(Oodb.Symbol.intern "shard.inbox_depth")
    "shard.inbox_depth"

(* --- typed errors ---------------------------------------------------------- *)

type error =
  | Stopped
  | Degraded of int
  | Overloaded of int
  | Dead_lettered of int
  | Timed_out of int

exception Shard_error of error

(* Raised by the payload [kill] posts: simulated domain death.  Deliberately
   NOT contained at the job boundary — it unwinds the worker loop exactly
   like a crash would, leaving the in-flight message claimed for the
   supervisor to dead-letter. *)
exception Shard_kill

let error_to_string = function
  | Stopped -> "pool stopped"
  | Degraded i -> Printf.sprintf "shard %d degraded" i
  | Overloaded i -> Printf.sprintf "shard %d overloaded" i
  | Dead_lettered i -> Printf.sprintf "dead-lettered for shard %d" i
  | Timed_out i -> Printf.sprintf "timed out waiting on shard %d" i

let () =
  Printexc.register_printer (function
    | Shard_error e -> Some ("Shard_pool.Shard_error: " ^ error_to_string e)
    | Shard_kill -> Some "Shard_pool.Shard_kill"
    | _ -> None)

type backpressure = Block of { max_wait_ms : int } | Shed_newest | Dead_letter

type supervision = {
  heartbeat_interval_ms : int;
  wedge_timeout_ms : int;
  max_restarts : int;
  restart_window_ms : int;
}

let default_supervision =
  {
    heartbeat_interval_ms = 10;
    wedge_timeout_ms = 500;
    max_restarts = 3;
    restart_window_ms = 10_000;
  }

type shard_state = [ `Ready | `Restarting | `Degraded ]

let state_to_string = function
  | `Ready -> "ready"
  | `Restarting -> "restarting"
  | `Degraded -> "degraded"

(* --- one-shot synchronisation cell --------------------------------------- *)

module Ivar = struct
  type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); c = Condition.create (); v = None }

  (* first fill wins: a job that completes after its abort callback already
     reported a typed error must not overwrite what the caller saw *)
  let fill t x =
    Mutex.lock t.m;
    (match t.v with
    | None ->
      t.v <- Some x;
      Condition.broadcast t.c
    | Some _ -> ());
    Mutex.unlock t.m

  let read t =
    Mutex.lock t.m;
    while t.v = None do
      Condition.wait t.c t.m
    done;
    let x = match t.v with Some x -> x | None -> assert false in
    Mutex.unlock t.m;
    x

  (* [Condition] has no timed wait, so the deadline variant polls: peek
     under the mutex, then sleep a capped-jittered gap (50µs doubling to
     1ms).  Used only on the explicit-timeout path, where the granularity
     is noise against the timeout itself. *)
  let read_until t ~deadline_ns =
    let rec go attempt =
      Mutex.lock t.m;
      let v = t.v in
      Mutex.unlock t.m;
      match v with
      | Some x -> Some x
      | None ->
        if Obs.Clock.now_ns () >= deadline_ns then None
        else begin
          (try
             Unix.sleepf
               (Error_policy.retry_delay ~base:0.00005 ~cap:0.001
                  ~rand:(fun () -> Random.float 1.)
                  attempt)
           with Unix.Unix_error _ -> ());
          go (attempt + 1)
        end
    in
    go 1
end

(* --- pool ----------------------------------------------------------------- *)

type job = {
  run : System.t -> unit -> unit;
      (* executes the job and returns its reply, which the worker calls
         only once the job is counted as completed *)
  trace : int;
  abort : (error -> unit) option; (* invoked when the job is discarded *)
}

type msg = Stop | Job of job

(* encoded shard_state for lock-free cross-domain reads *)
let s_ready = 0

and s_restarting = 1

and s_degraded = 2

(* One mailbox per shard: [lock] guards the inbox, [current], [deferred],
   [pushes], the generation and every state change, and [cond] wakes the
   parked worker on a push or a teardown.  A push therefore reads the state
   under the lock a degrade takes, so no job lands behind a degrade. *)
type shard = {
  idx : int;
  lock : Mutex.t;
  cond : Condition.t;
  inbox : msg Queue.t; (* owned by the shard slot; survives restarts *)
  mutable current : msg option; (* message being executed *)
  mutable deferred : ((unit, error) result -> unit) list;
      (* completions parked until the next durability point (the idle
         hook), told whether it made their work durable; newest first *)
  mutable pushes : int; (* messages ever queued, monotone *)
  mutable generation : int; (* bumped by every teardown *)
  mutable system : System.t option; (* written by the shard before ready *)
  mutable domain : (unit Domain.t * bool Atomic.t) option;
      (* (domain, finished); supervisor/create/stop only *)
  processed : int Atomic.t;
  failed : int Atomic.t;
  state : int Atomic.t; (* written under [lock], read lock-free *)
  alive : bool Atomic.t; (* current-generation worker loop is running *)
  init_failed : bool Atomic.t; (* a restart's [init] raised *)
  busy_since : float Atomic.t; (* Clock ns; 0. when idle *)
  restarts : int Atomic.t;
  mutable restart_times : float list; (* supervisor domain only *)
  reinstate_requested : bool Atomic.t;
}

type t = {
  n : int;
  shards : shard array;
  capacity : int;
  policy : backpressure;
  supervision : supervision option;
  init : t -> int -> System.t; (* kept so the supervisor can restart *)
  enqueued : int Atomic.t; (* jobs accepted, pool-wide *)
  completed : int Atomic.t; (* jobs fully executed (posts they made count
                               into [enqueued] before this increments) *)
  discarded : int Atomic.t; (* accepted jobs that will never execute:
                               aborted at teardown, degrade or stop *)
  forwarded : int Atomic.t; (* jobs that hopped shards *)
  shed : int Atomic.t; (* submissions rejected by backpressure *)
  timeouts : int Atomic.t; (* run_on deadline expiries *)
  failures : (int * exn) Obs.Ring.t; (* guarded by failures_lock *)
  failures_lock : Mutex.t;
  on_idle : (int -> System.t -> unit) option;
      (* runs on the shard domain whenever its mailbox goes empty — the
         durability hook: sealing a group-commit WAL here means a quiescent
         shard never holds unsynced commits, while a busy shard coalesces
         an entire drain run into one fsync *)
  dead_letters : (int * job) Obs.Ring.t; (* guarded by dead_letters_lock *)
  dead_letters_lock : Mutex.t;
  stopped : bool Atomic.t;
  mutable supervisor : unit Domain.t option;
  supervisor_stop : bool Atomic.t;
  mutable zombies : (unit Domain.t * bool Atomic.t) list;
      (* abandoned wedged domains; guarded by zombies_lock *)
  zombies_lock : Mutex.t;
}

type stats = {
  shard_processed : int array;
  shard_failed : int array;
  shard_state : shard_state array;
  shard_restarts : int array;
  inbox_depth : int array;
  forwarded : int;
  enqueued : int;
  completed : int;
  discarded : int;
  shed : int;
  dead_lettered : int;
  timeouts : int;
  mpsc_pushes : int; (* messages ever queued, pool-wide *)
}

(* Which shard (of which pool) the current domain is executing for: lets a
   same-shard post run inline, preserving cascade depth, and identifies
   cross-shard posts for the forwarded counter. *)
type ctx = { c_pool : t; c_idx : int; c_sys : System.t }

let current_ctx : ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shard_count t = t.n
let shard_of t oid = Oid.to_int oid mod t.n

let get_state sh : shard_state =
  let s = Atomic.get sh.state in
  if s = s_ready then `Ready else if s = s_restarting then `Restarting
  else `Degraded

let shard_state t idx =
  if idx < 0 || idx >= t.n then invalid_arg "Shard_pool: bad shard index";
  get_state t.shards.(idx)

let system_exn sh =
  match sh.system with
  | Some sys -> sys
  | None -> invalid_arg "Shard_pool: shard not initialised"

let note_failure t sh e =
  ignore (Atomic.fetch_and_add sh.failed 1);
  Mutex.protect t.failures_lock (fun () ->
      Obs.Ring.push t.failures (sh.idx, e))

let record_dead_letter t idx j =
  Mutex.protect t.dead_letters_lock (fun () ->
      Obs.Ring.push t.dead_letters (idx, j));
  Obs.Metrics.hit st_dead_letter;
  if !Obs.Trace.on then Obs.Trace.instant "shard.dead_letter" (string_of_int idx)

let abort_job j err =
  match j.abort with
  | Some f -> ( try f err with _ -> ())
  | None -> ()

(* An accepted message that will never run: dead-letter it (so an operator
   can replay after the cause clears) and surface the typed error to any
   synchronous waiter. *)
let reject (t : t) idx err = function
  | Stop -> ()
  | Job j ->
    ignore (Atomic.fetch_and_add t.discarded 1);
    record_dead_letter t idx j;
    abort_job j err

(* Stop is final — no replay possible — so shutdown leftovers are discarded
   without parking them in the dead-letter ring. *)
let discard_at_stop (t : t) = function
  | Stop -> ()
  | Job j ->
    ignore (Atomic.fetch_and_add t.discarded 1);
    abort_job j Stopped

(* Everything queued on [sh], oldest first, leaving the inbox empty; the
   caller holds [sh.lock]. *)
let take_queued sh =
  let l = List.of_seq (Queue.to_seq sh.inbox) in
  Queue.clear sh.inbox;
  l

(* Queue [msg] and wake the worker; the caller holds [sh.lock]. *)
let enqueue sh msg =
  Queue.push msg sh.inbox;
  sh.pushes <- sh.pushes + 1;
  Condition.signal sh.cond

(* --- durability-deferred completions ----------------------------------------
   A job that wants its waiter released only once its commits are sealed
   parks the release here; the worker runs the parked list right after the
   idle hook (the seal) with its outcome, and on its way out of the loop
   with the error that ended it, so no waiter can hang across a stop or a
   crash-restart and none is told its work is durable when no seal ran. *)

let take_deferred sh =
  Mutex.protect sh.lock (fun () ->
      match sh.deferred with
      | [] -> []
      | l ->
        sh.deferred <- [];
        List.rev l)

let run_deferred sealed fs = List.iter (fun f -> try f sealed with _ -> ()) fs

(* Park [f] until the owning shard's next durability point; [false] means
   the pool has no idle hook, so the caller completes immediately —
   deferral only makes sense when something seals on idle. *)
let defer_durable t idx f =
  if t.on_idle = None then false
  else begin
    let sh = t.shards.(idx) in
    Mutex.protect sh.lock (fun () -> sh.deferred <- f :: sh.deferred);
    true
  end

(* Shard-level containment backstop: a rule failure that escapes the
   rule-layer policies (Propagate, or an error outside any firing) is caught
   at the job boundary, logged, and the shard moves to the next message —
   it never unwinds the worker loop, so one shard's poison job cannot take
   down a sibling or the pool.  [Shard_kill] is the one exception that does
   unwind: it simulates the domain dying mid-job.  The job is counted
   before its reply releases a waiter, so a caller that reads [stats] right
   after its [run_on] returns sees its own job completed. *)
let run_job t sh sys ~trace run =
  let reply =
    try
      if trace = 0 then run sys
      else Obs.Trace.with_trace trace (fun () -> run sys)
    with
    | Shard_kill -> raise Shard_kill
    | e ->
      note_failure t sh e;
      ignore
  in
  ignore (Atomic.fetch_and_add sh.processed 1);
  ignore (Atomic.fetch_and_add t.completed 1);
  reply ()

(* --- submission and backpressure ------------------------------------------ *)

(* Queue [msg] on [sh] unless the pool is stopped, the shard degraded or,
   when [bounded], its inbox full.  The first two checks run under the
   lock that [stop]'s marker and [degrade] take, so an accepted message is
   never stranded behind either.  A job counts as enqueued before the
   worker can pop it: counted after, it could run and complete first, and
   [drain] would see its parent's share of the count as done while the
   parent still runs. *)
let push (t : t) sh ~bounded msg =
  Mutex.protect sh.lock (fun () ->
      if Atomic.get t.stopped then `Refused Stopped
      else if Atomic.get sh.state = s_degraded then `Refused (Degraded sh.idx)
      else if bounded && Queue.length sh.inbox >= t.capacity then `Full
      else begin
        ignore (Atomic.fetch_and_add t.enqueued 1);
        enqueue sh msg;
        `Queued
      end)

(* Admit one job to [sh]'s bounded inbox; on overflow the pool's
   backpressure policy decides. *)
let accept (t : t) sh j =
  let msg = Job j in
  let shed () =
    ignore (Atomic.fetch_and_add t.shed 1);
    Obs.Metrics.hit st_shed;
    Error (Overloaded sh.idx)
  in
  match push t sh ~bounded:true msg with
  | `Queued -> Ok ()
  | `Refused e -> Error e
  | `Full -> (
    match t.policy with
    | Shed_newest -> shed ()
    | Dead_letter ->
      (* parked, not lost: [replay_dead_letters] resubmits it *)
      ignore (Atomic.fetch_and_add t.shed 1);
      record_dead_letter t sh.idx j;
      Error (Dead_lettered sh.idx)
    | Block { max_wait_ms } ->
      let deadline =
        Obs.Clock.now_ns () +. (float_of_int max_wait_ms *. 1e6)
      in
      let rec wait attempt =
        (* a shard blocked on a full sibling is exerting backpressure, not
           wedged: refresh its own heartbeat so the supervisor stays calm *)
        (match Domain.DLS.get current_ctx with
        | Some c when c.c_pool == t ->
          Atomic.set t.shards.(c.c_idx).busy_since (Obs.Clock.now_ns ())
        | _ -> ());
        if Obs.Clock.now_ns () >= deadline then shed ()
        else begin
          (try
             Unix.sleepf
               (Error_policy.retry_delay ~base:0.0001 ~cap:0.002
                  ~rand:(fun () -> Random.float 1.)
                  attempt)
           with Unix.Unix_error _ -> ());
          match push t sh ~bounded:true msg with
          | `Queued -> Ok ()
          | `Refused e -> Error e
          | `Full -> wait (attempt + 1)
        end
      in
      wait 1)

(* The one way into a shard.  A job submitted on its own shard runs inline
   under the ambient trace; any other goes to the inbox under [trace]
   (default: the caller's current trace).  A [~barrier] job is [drain]'s
   pool-internal bookkeeping: it bypasses the inbox capacity and is never
   shed, so it neither displaces user work nor moves the backpressure or
   forwarding counters. *)
let submit ?trace ?(barrier = false) t idx ~run ~abort =
  if idx < 0 || idx >= t.n then invalid_arg "Shard_pool: bad shard index";
  if Atomic.get t.stopped then Error Stopped
  else begin
    let sh = t.shards.(idx) in
    match Domain.DLS.get current_ctx with
    | Some c when c.c_pool == t && c.c_idx = idx ->
      ignore (Atomic.fetch_and_add t.enqueued 1);
      run_job t sh c.c_sys ~trace:0 run;
      Ok ()
    | ctx ->
      if get_state sh = `Degraded then Error (Degraded idx)
      else if barrier then
        match push t sh ~bounded:false (Job { run; trace = 0; abort }) with
        | `Refused e -> Error e
        | `Queued | `Full -> Ok ()
      else begin
        (match ctx with
        | Some c when c.c_pool == t ->
          ignore (Atomic.fetch_and_add t.forwarded 1)
        | _ -> ());
        let trace =
          match trace with Some tr -> tr | None -> Obs.Trace.current ()
        in
        accept t sh { run; trace; abort }
      end
  end

let post_on t idx f =
  submit t idx
    ~run:(fun sys ->
      f sys;
      ignore)
    ~abort:None

(* The calling domain's shard index in [t], or -1 off the pool's shards. *)
let self_index t =
  match Domain.DLS.get current_ctx with
  | Some c when c.c_pool == t -> c.c_idx
  | _ -> -1

let deadline_of timeout_ms =
  Option.map
    (fun ms -> Obs.Clock.now_ns () +. (float_of_int ms *. 1e6))
    timeout_ms

(* Wait for shard [idx]'s answer, up to [deadline_ns] when one is given. *)
let await (t : t) idx iv deadline_ns =
  match deadline_ns with
  | None -> Ivar.read iv
  | Some deadline_ns -> (
    match Ivar.read_until iv ~deadline_ns with
    | Some r -> r
    | None ->
      (* the job may still execute later — a timeout only abandons the
         wait, it cannot retract a message already accepted *)
      ignore (Atomic.fetch_and_add t.timeouts 1);
      Obs.Metrics.hit st_timeout;
      Error (Shard_error (Timed_out idx)))

(* Submit [f] to shard [idx], its result (or the typed error that displaced
   it) landing in [iv].  A declined submission fills [iv] itself: a
   rejected job never reaches its abort. *)
let post_into ?barrier t iv idx f =
  let run sys =
    let r = try Ok (f sys) with e -> Error e in
    fun () -> Ivar.fill iv r
  in
  let abort = Some (fun err -> Ivar.fill iv (Error (Shard_error err))) in
  match submit ?barrier t idx ~run ~abort with
  | Ok () -> ()
  | Error err -> Ivar.fill iv (Error (Shard_error err))

let run_on ?timeout_ms t idx f =
  let iv = Ivar.create () in
  post_into t iv idx f;
  await t idx iv (deadline_of timeout_ms)

(* Scatter-gather over every shard: post [f i] to each shard before waiting
   for any, then collect every answer, in shard order, under one deadline.
   A shard that declines or fails does not stop the others.  The calling
   shard's own job runs inline, so it is posted last: the other shards'
   jobs overlap with it instead of queueing behind it. *)
let scatter ?timeout_ms ?barrier t f =
  let deadline_ns = deadline_of timeout_ms in
  let self = self_index t in
  let ivs = Array.init t.n (fun _ -> Ivar.create ()) in
  for i = 0 to t.n - 1 do
    if i <> self then post_into ?barrier t ivs.(i) i (f i)
  done;
  if self >= 0 then post_into ?barrier t ivs.(self) self (f self);
  Array.mapi (fun i iv -> await t i iv deadline_ns) ivs

let post t oid meth args =
  post_on t (shard_of t oid) (fun sys ->
      ignore (Db.send (System.db sys) oid meth args))

let each ?timeout_ms t f =
  let results = scatter ?timeout_ms t f in
  match Array.find_opt Result.is_error results with
  | Some (Error e) -> Error e
  | _ -> Ok (Array.to_list (Array.map Result.get_ok results))

(* --- batched ingestion ------------------------------------------------------ *)

let ingest ?(wait = false) ?trace t events =
  let trace = match trace with Some tr -> tr | None -> Obs.Trace.current () in
  (* partition by owning shard, preserving per-shard event order, then hand
     each destination ONE job that ingests its whole sub-batch: the shard
     side amortizes the transaction + route-coalescing scope, and the
     posting side ships at most one message per destination *)
  let groups = Array.make t.n [] in
  List.iter
    (fun ((oid, _, _) as ev) ->
      let idx = shard_of t oid in
      groups.(idx) <- ev :: groups.(idx))
    events;
  let err = ref None in
  let note e = if !err = None then err := Some e in
  let ivs = ref [] in
  Array.iteri
    (fun idx rev ->
      if rev <> [] then begin
        let sub = List.rev rev in
        (* a waiting sub-batch is released from the shard's next durability
           point when the pool seals on idle, from the job itself otherwise.
           The ivar is first-fill-wins, so an abort or a dead-letter replay
           after the job filled it changes nothing. *)
        let iv = if wait then Some (Ivar.create ()) else None in
        let run sys =
          let r = System.ingest sys sub in
          (* the sub-batch transaction already rolled back: record the
             shard failure the job boundary would have *)
          (match r with Ok _ -> () | Error e -> note_failure t t.shards.(idx) e);
          match iv with
          | None -> ignore
          | Some iv ->
            let fin sealed =
              Ivar.fill iv
                (match r with Ok _ -> sealed | Error _ -> Error (Degraded idx))
            in
            if defer_durable t idx fin then ignore else fun () -> fin (Ok ())
        in
        let abort = Option.map (fun iv e -> Ivar.fill iv (Error e)) iv in
        match submit ~trace t idx ~run ~abort with
        | Ok () -> Option.iter (fun iv -> ivs := iv :: !ivs) iv
        | Error e -> note e
      end)
    groups;
  List.iter
    (fun iv -> match Ivar.read iv with Ok () -> () | Error e -> note e)
    !ivs;
  match !err with None -> Ok () | Some e -> Error e

let kill t idx = post_on t idx (fun _ -> raise Shard_kill)

(* --- quiescence ------------------------------------------------------------ *)

(* Quiescence barrier: a round submits a no-op through every live shard's
   inbox (a FIFO queue, so it drains everything enqueued before it) —
   to all shards at once, then waits for all of them — and then checks that
   no accepted job is still in flight: jobs spawned *by* jobs (cross-shard
   cascades) bump [enqueued] before their parent completes, and jobs the
   failure machinery discarded count into [discarded], so
   completed + discarded >= enqueued really means quiet.  Degraded shards
   decline the barrier (their backlog was discarded when they degraded), and
   so does a stopped pool, whose workers are gone: nothing more will run. *)
let drain (t : t) =
  (* the finished counts are read before [enqueued]: a job enqueues its
     children before it completes, so a completion seen here brings its
     children into the count read after it *)
  let quiet () =
    let finished = Atomic.get t.completed + Atomic.get t.discarded in
    finished >= Atomic.get t.enqueued
  in
  let rec go () =
    ignore (scatter ~barrier:true t (fun _ _ -> ()));
    if not (quiet () || Atomic.get t.stopped) then begin
      (try Unix.sleepf 0.0002 with Unix.Unix_error _ -> ());
      go ()
    end
  in
  go ()

(* --- introspection --------------------------------------------------------- *)

let depth sh = Mutex.protect sh.lock (fun () -> Queue.length sh.inbox)

let stats t =
  {
    shard_processed = Array.map (fun sh -> Atomic.get sh.processed) t.shards;
    shard_failed = Array.map (fun sh -> Atomic.get sh.failed) t.shards;
    shard_state = Array.map get_state t.shards;
    shard_restarts = Array.map (fun sh -> Atomic.get sh.restarts) t.shards;
    inbox_depth = Array.map depth t.shards;
    forwarded = Atomic.get t.forwarded;
    enqueued = Atomic.get t.enqueued;
    completed = Atomic.get t.completed;
    discarded = Atomic.get t.discarded;
    shed = Atomic.get t.shed;
    dead_lettered =
      Mutex.protect t.dead_letters_lock (fun () ->
          Obs.Ring.total t.dead_letters);
    timeouts = Atomic.get t.timeouts;
    mpsc_pushes =
      Array.fold_left
        (fun acc sh -> acc + Mutex.protect sh.lock (fun () -> sh.pushes))
        0 t.shards;
  }

let recent_failures t =
  Mutex.protect t.failures_lock (fun () -> Obs.Ring.to_list_rev t.failures)

let dead_letter_count t =
  Mutex.protect t.dead_letters_lock (fun () -> Obs.Ring.length t.dead_letters)

let purge_dead_letters t =
  Mutex.protect t.dead_letters_lock (fun () ->
      let n = Obs.Ring.length t.dead_letters in
      Obs.Ring.clear t.dead_letters;
      n)

let replay_dead_letters t =
  if Atomic.get t.stopped then 0
  else begin
    let entries =
      Mutex.protect t.dead_letters_lock (fun () ->
          let l = Obs.Ring.to_list t.dead_letters in
          Obs.Ring.clear t.dead_letters;
          l)
    in
    let replayed = ref 0 in
    List.iter
      (fun (idx, j) ->
        (* bypass the backpressure policy: a replayed job was already
           counted (shed or discarded) when it was parked, and the
           Dead_letter policy would park a rejected replay a second time —
           plain bounded push, back to the ring exactly once when declined *)
        match push t t.shards.(idx) ~bounded:true (Job j) with
        | `Queued -> incr replayed
        | `Full | `Refused _ ->
          Mutex.protect t.dead_letters_lock (fun () ->
              Obs.Ring.push t.dead_letters (idx, j)))
      entries;
    !replayed
  end

(* --- worker ---------------------------------------------------------------- *)

(* Every message is queued, in [current], or owned by exactly one side of a
   teardown: the worker moves a message from the inbox to [current] under
   [sh.lock], gated on its generation, and a teardown bumps the generation
   and claims [current] under the same lock.  A superseded worker — parked,
   or returning from a wedged job — sees itself stale at its next claim and
   leaves without touching the inbox, which stays in place for the
   successor. *)

(* Supersede the worker's generation and claim the message it held. *)
let teardown sh =
  Mutex.protect sh.lock (fun () ->
      sh.generation <- sh.generation + 1;
      Atomic.set sh.alive false;
      Atomic.set sh.busy_since 0.;
      Atomic.set sh.init_failed false;
      let cur = sh.current in
      sh.current <- None;
      Condition.broadcast sh.cond;
      cur)

(* Reject [cur] and the backlog, and fail later pushes fast: they read the
   state under the lock the backlog is taken under. *)
let degrade t sh cur =
  let backlog =
    Mutex.protect sh.lock (fun () ->
        Atomic.set sh.state s_degraded;
        take_queued sh)
  in
  Obs.Metrics.hit st_degraded;
  if !Obs.Trace.on then Obs.Trace.instant "shard.degraded" (string_of_int sh.idx);
  List.iter (reject t sh.idx (Degraded sh.idx)) (Option.to_list cur @ backlog)

(* The worker's one step under the lock: retire the message it ran and take
   the next, first parking on [cond] while the inbox is empty when [wait]. *)
let claim sh ~gen ~wait =
  Mutex.protect sh.lock (fun () ->
      if wait then
        while Queue.is_empty sh.inbox && sh.generation = gen do
          Condition.wait sh.cond sh.lock
        done;
      if sh.generation <> gen then `Stale
      else begin
        let next = Queue.take_opt sh.inbox in
        sh.current <- next;
        match next with
        | Some m ->
          (* [busy_since] is what the wedge watchdog reads *)
          Atomic.set sh.busy_since (Obs.Clock.now_ns ());
          `Run m
        | None ->
          Atomic.set sh.busy_since 0.;
          `Empty
      end)

let worker t sh ~gen ready =
  (* read under [sh.lock] *)
  let stale () = sh.generation <> gen in
  match t.init t sh.idx with
  | exception e ->
    note_failure t sh e;
    Mutex.protect sh.lock (fun () ->
        if not (stale ()) then Atomic.set sh.init_failed true);
    Option.iter (fun iv -> Ivar.fill iv (Error e)) ready
  | sys ->
    Db.configure_shard (System.db sys) ~index:sh.idx ~of_:t.n;
    Domain.DLS.set current_ctx
      (Some { c_pool = t; c_idx = sh.idx; c_sys = sys });
    Mutex.protect sh.lock (fun () ->
        if not (stale ()) then begin
          sh.system <- Some sys;
          Atomic.set sh.alive true;
          Atomic.set sh.state s_ready
        end);
    Option.iter (fun iv -> Ivar.fill iv (Ok ())) ready;
    let rec loop ~wait =
      match claim sh ~gen ~wait with
      | `Stale -> `Abandoned
      | `Run Stop -> `Stopped
      | `Run (Job j) ->
        run_job t sh sys ~trace:j.trace j.run;
        loop ~wait:false
      | `Empty ->
        (* the idle hook fires only on an empty inbox, so a loaded shard
           never pays a durability point mid-run *)
        let sealed =
          match t.on_idle with
          | Some f -> (
            try Ok (f sh.idx sys)
            with e ->
              note_failure t sh e;
              Error (Degraded sh.idx))
          | None -> Ok ()
        in
        (* the seal above made everything committed so far durable, or
           failed to: release the waiters parked on it *)
        run_deferred sealed (take_deferred sh);
        loop ~wait:true
    in
    let outcome =
      try loop ~wait:false with
      | Shard_kill ->
        (* simulated domain death: [current] stays claimed for the
           supervisor to dead-letter; the inbox behind it stays queued *)
        `Died
      | e ->
        (* a worker-loop failure outside any job: record it and die; the
           supervisor treats it like a crash *)
        note_failure t sh e;
        `Died
    in
    let retire () =
      Mutex.protect sh.lock (fun () ->
          if not (stale ()) then begin
            Atomic.set sh.busy_since 0.;
            Atomic.set sh.alive false
          end)
    in
    match outcome with
    | `Stopped ->
      retire ();
      (* no seal is coming: release parked waiters rather than hang them *)
      run_deferred (Error Stopped) (take_deferred sh)
    | `Died ->
      run_deferred (Error (Degraded sh.idx)) (take_deferred sh);
      (* nothing will restart an unsupervised shard: degrade it now, as a
         restart budget of 0 would, so its backlog and later sends fail
         typed *)
      if t.supervision = None then degrade t sh (teardown sh) else retire ()
    | `Abandoned -> ()

let spawn_worker t sh ready =
  let gen = Mutex.protect sh.lock (fun () -> sh.generation) in
  let fin = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set fin true)
          (fun () -> worker t sh ~gen ready))
  in
  sh.domain <- Some (d, fin)

(* --- supervisor ------------------------------------------------------------ *)

let reap_domain t sh ~wedged =
  match sh.domain with
  | None -> ()
  | Some (d, fin) ->
    sh.domain <- None;
    if Atomic.get fin || not wedged then Domain.join d
    else
      (* a wedged domain cannot be joined (OCaml domains are not killable);
         abandon it — its job, when and if it returns, finds itself stale
         and exits without side effects on the pool *)
      Mutex.protect t.zombies_lock (fun () ->
          t.zombies <- (d, fin) :: t.zombies)

let restart t sup sh ~wedged =
  let now = Obs.Clock.now_ns () in
  let window = float_of_int sup.restart_window_ms *. 1e6 in
  sh.restart_times <-
    List.filter (fun ts -> now -. ts <= window) sh.restart_times;
  let cur = teardown sh in
  reap_domain t sh ~wedged;
  if List.length sh.restart_times >= sup.max_restarts then degrade t sh cur
  else begin
    sh.restart_times <- now :: sh.restart_times;
    ignore (Atomic.fetch_and_add sh.restarts 1);
    Obs.Metrics.hit st_restart;
    if !Obs.Trace.on then
      Obs.Trace.instant "shard.restart" (string_of_int sh.idx);
    Mutex.protect sh.lock (fun () -> Atomic.set sh.state s_restarting);
    (* the in-flight message crashed or wedged this shard: dead-letter it
       rather than replay it into the fresh engine; the messages behind it
       are still queued, in arrival order, for the successor *)
    Option.iter (reject t sh.idx (Dead_lettered sh.idx)) cur;
    spawn_worker t sh None
  end

let check_shard t sup sh now =
  match get_state sh with
  | `Degraded ->
    if Atomic.get sh.reinstate_requested then begin
      Atomic.set sh.reinstate_requested false;
      sh.restart_times <- [];
      restart t sup sh ~wedged:false
    end
  | `Restarting ->
    (* a restart is in flight: wait for its init unless it already failed *)
    if Atomic.get sh.init_failed then restart t sup sh ~wedged:false
  | `Ready ->
    if not (Atomic.get sh.alive) then restart t sup sh ~wedged:false
    else begin
      let busy = Atomic.get sh.busy_since in
      if
        busy > 0.
        && now -. busy > float_of_int sup.wedge_timeout_ms *. 1e6
      then begin
        Obs.Metrics.hit st_wedge;
        if !Obs.Trace.on then
          Obs.Trace.instant "shard.wedge" (string_of_int sh.idx);
        restart t sup sh ~wedged:true
      end
    end

let supervise t sup =
  let interval = float_of_int sup.heartbeat_interval_ms /. 1000. in
  while not (Atomic.get t.supervisor_stop) do
    (try Unix.sleepf interval with Unix.Unix_error _ -> ());
    if not (Atomic.get t.supervisor_stop) then begin
      let tok =
        if !Obs.Trace.on then Some (Obs.Trace.enter "supervise" "") else None
      in
      let t0 = Obs.Clock.now_ns () in
      Array.iter
        (fun sh ->
          check_shard t sup sh t0;
          if !Obs.Metrics.on then
            Obs.Metrics.observe_ns st_inbox_depth
              (float_of_int (depth sh)))
        t.shards;
      if !Obs.Metrics.on then
        Obs.Metrics.observe_ns st_supervise (Obs.Clock.now_ns () -. t0);
      match tok with Some tok -> Obs.Trace.exit tok | None -> ()
    end
  done

let reinstate t idx =
  if idx < 0 || idx >= t.n then invalid_arg "Shard_pool: bad shard index";
  if t.supervision = None then
    invalid_arg "Shard_pool.reinstate: pool has no supervisor";
  (* only meaningful on a degraded shard — a request recorded against a
     healthy one would silently cancel a future degrade *)
  if get_state t.shards.(idx) = `Degraded then
    Atomic.set t.shards.(idx).reinstate_requested true

(* --- lifecycle ------------------------------------------------------------- *)

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (match t.supervisor with
    | Some d ->
      Atomic.set t.supervisor_stop true;
      Domain.join d;
      t.supervisor <- None
    | None -> ());
    (* the marker lands behind every accepted job: [push] refuses jobs
       from here on *)
    Array.iter
      (fun sh -> Mutex.protect sh.lock (fun () -> enqueue sh Stop))
      t.shards;
    Array.iter
      (fun sh ->
        match sh.domain with
        | Some (d, _) ->
          Domain.join d;
          sh.domain <- None
        | None -> ())
      t.shards;
    (* a shard whose worker died with no restart to follow left its
       backlog queued: wake those waiters with [Stopped] *)
    Array.iter
      (fun sh ->
        List.iter (discard_at_stop t)
          (Mutex.protect sh.lock (fun () -> take_queued sh)))
      t.shards;
    (* abandoned wedged domains: join the ones whose poisoned job has since
       returned; a genuinely infinite job leaks its domain (documented) *)
    let zs =
      Mutex.protect t.zombies_lock (fun () ->
          let z = t.zombies in
          t.zombies <- [];
          z)
    in
    List.iter (fun (d, fin) -> if Atomic.get fin then Domain.join d) zs
  end

let create ?on_idle ?(failure_log_limit = 128)
    ?(dead_letter_limit = 256) ?(inbox_capacity = 4096)
    ?(backpressure = Block { max_wait_ms = 1_000 }) ?supervision ~shards:n
    ~init () =
  if n <= 0 then invalid_arg "Shard_pool.create: shards must be >= 1";
  if inbox_capacity < 1 then
    invalid_arg "Shard_pool.create: inbox_capacity must be >= 1";
  (match backpressure with
  | Block { max_wait_ms } when max_wait_ms < 0 ->
    invalid_arg "Shard_pool.create: Block max_wait_ms must be >= 0"
  | _ -> ());
  let t =
    {
      n;
      shards =
        Array.init n (fun idx ->
            {
              idx;
              lock = Mutex.create ();
              cond = Condition.create ();
              inbox = Queue.create ();
              current = None;
              deferred = [];
              pushes = 0;
              generation = 0;
              system = None;
              domain = None;
              processed = Atomic.make 0;
              failed = Atomic.make 0;
              state = Atomic.make s_ready;
              alive = Atomic.make false;
              init_failed = Atomic.make false;
              busy_since = Atomic.make 0.;
              restarts = Atomic.make 0;
              restart_times = [];
              reinstate_requested = Atomic.make false;
            });
      capacity = inbox_capacity;
      policy = backpressure;
      supervision;
      init;
      enqueued = Atomic.make 0;
      completed = Atomic.make 0;
      discarded = Atomic.make 0;
      forwarded = Atomic.make 0;
      shed = Atomic.make 0;
      timeouts = Atomic.make 0;
      failures = Obs.Ring.create (max 1 failure_log_limit);
      failures_lock = Mutex.create ();
      on_idle;
      dead_letters = Obs.Ring.create (max 1 dead_letter_limit);
      dead_letters_lock = Mutex.create ();
      stopped = Atomic.make false;
      supervisor = None;
      supervisor_stop = Atomic.make false;
      zombies = [];
      zombies_lock = Mutex.create ();
    }
  in
  let readies = Array.init n (fun _ -> Ivar.create ()) in
  Array.iteri (fun idx sh -> spawn_worker t sh (Some readies.(idx))) t.shards;
  let first_error =
    Array.fold_left
      (fun acc iv ->
        match (acc, Ivar.read iv) with
        | None, Error e -> Some e
        | acc, _ -> acc)
      None readies
  in
  (match first_error with
  | None -> ()
  | Some e ->
    (* tear down whatever did start, then surface the init failure *)
    stop t;
    raise e);
  (match supervision with
  | Some sup -> t.supervisor <- Some (Domain.spawn (fun () -> supervise t sup))
  | None -> ());
  t

let system t idx =
  if idx < 0 || idx >= t.n then invalid_arg "Shard_pool: bad shard index";
  system_exn t.shards.(idx)

(* Cross-layer chaos harness for the supervised shard pool: kill a shard
   mid-batch (per-shard WAL recovery must preserve every acknowledged
   commit), wedge one with a poisoned infinite job, flood a bounded inbox
   under every backpressure policy, and fault-inject the recovery path so
   a restart's own init crashes.  Each scenario asserts the documented
   terminal state and that the pool's counters stay honest. *)

open Helpers
module Wal = Oodb.Wal
module Shard_pool = Sentinel.Shard_pool

let ok_or_raise = function
  | Ok x -> x
  | Error e -> raise (Shard_pool.Shard_error e)

let post_on_exn pool i f = ok_or_raise (Shard_pool.post_on pool i f)
let run_on_exn pool i f =
  match Shard_pool.run_on pool i f with Ok x -> x | Error e -> raise e

(* Poll until [pred ()]; supervision is asynchronous, so every "the
   supervisor will have..." assertion waits bounded-then-fails. *)
let wait_for ?(timeout_s = 10.) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let tight_supervision =
  {
    Shard_pool.heartbeat_interval_ms = 2;
    wedge_timeout_ms = 100;
    max_restarts = 5;
    restart_window_ms = 10_000;
  }

let with_wal_paths n f =
  let paths =
    Array.init n (fun i ->
        Filename.temp_file (Printf.sprintf "chaos%d" i) ".wal")
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

(* --- kill a shard mid-batch: acknowledged commits survive the restart ---- *)

let test_kill_mid_batch () =
  with_wal_paths 2 (fun paths ->
      let pool =
        Shard_pool.create ~shards:2 ~supervision:tight_supervision
          ~init:(fun _ i ->
            let db = employee_db () in
            let sys = System.create db in
            (* a restarted shard replays its own log before attaching: this
               is where every acknowledged commit comes back from *)
            ignore (Wal.replay db paths.(i));
            ignore (Wal.attach db paths.(i));
            sys)
          ()
      in
      let oids =
        run_on_exn pool 0 (fun sys ->
            List.init 8 (fun _ -> new_employee (System.db sys)))
      in
      (* acknowledged batch: each write completed (run_on returned Ok), so
         each is on the shard's durable log *)
      List.iteri
        (fun k o ->
          run_on_exn pool 0 (fun sys ->
              ignore
                (Db.send (System.db sys) o "set_salary"
                   [ Value.Float (float_of_int (1000 + k)) ])))
        oids;
      ok_or_raise (Shard_pool.kill pool 0);
      wait_for "shard 0 restart" (fun () ->
          (Shard_pool.stats pool).Shard_pool.shard_restarts.(0) >= 1
          && Shard_pool.shard_state pool 0 = `Ready);
      (* the replacement keeps serving the same stride... *)
      let fresh = run_on_exn pool 0 (fun sys -> new_employee (System.db sys)) in
      Alcotest.(check int) "successor allocates in the same residue class" 0
        (Oid.to_int fresh mod 2);
      (* ...and no acknowledged commit was lost across the crash *)
      List.iteri
        (fun k o ->
          Alcotest.check value
            (Printf.sprintf "acked commit %d survived the kill" k)
            (Value.Float (float_of_int (1000 + k)))
            (run_on_exn pool 0 (fun sys -> Db.get (System.db sys) o "salary")))
        oids;
      let st = Shard_pool.stats pool in
      Alcotest.(check bool) "restart counted" true
        (st.Shard_pool.shard_restarts.(0) >= 1);
      (* the kill job itself was in flight when the shard died *)
      Alcotest.(check bool) "in-flight job dead-lettered" true
        (Shard_pool.dead_letter_count pool >= 1);
      Alcotest.(check bool) "sibling shard untouched" true
        (st.Shard_pool.shard_restarts.(1) = 0);
      Shard_pool.drain pool;
      Shard_pool.stop pool)

(* --- batch replay: jobs queued behind the kill run on the successor ------ *)

let test_kill_replays_backlog ~shards () =
  let pool =
    Shard_pool.create ~shards ~supervision:tight_supervision
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  (* hold the worker so the kill and a backlog queue up behind one batch *)
  let gate = Atomic.make false in
  let order = ref [] in
  let lock = Mutex.create () in
  post_on_exn pool 0 (fun _ ->
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  ok_or_raise (Shard_pool.kill pool 0);
  for k = 1 to 5 do
    post_on_exn pool 0 (fun _ ->
        Mutex.protect lock (fun () -> order := k :: !order))
  done;
  Atomic.set gate true;
  wait_for "backlog replayed on the successor" (fun () ->
      Mutex.protect lock (fun () -> List.length !order) = 5);
  (* the messages queued behind the poison were replayed in arrival order *)
  Alcotest.(check (list int)) "replay preserves order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Shard_pool.drain pool;
  (* dead-lettered jobs were accepted and then displaced, so they count
     into [discarded]: the books must balance exactly at quiescence *)
  let st = Shard_pool.stats pool in
  Alcotest.(check int) "every accepted job accounted for"
    st.Shard_pool.enqueued
    (st.Shard_pool.completed + st.Shard_pool.discarded);
  Alcotest.(check bool) "the killed job is parked for inspection" true
    (Shard_pool.dead_letter_count pool >= 1);
  Shard_pool.stop pool

(* --- wedge: a poisoned infinite job is detected and the shard replaced --- *)

let test_wedged_shard_replaced () =
  let pool =
    Shard_pool.create ~shards:2
      ~supervision:
        { tight_supervision with wedge_timeout_ms = 40; max_restarts = 3 }
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  let release = Atomic.make false in
  let after = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      (* the poisoned job: spins until the test releases it, unbounded as
         far as the supervisor can tell *)
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done);
  post_on_exn pool 0 (fun _ -> Atomic.set after true);
  wait_for "wedge detected and shard restarted" (fun () ->
      (Shard_pool.stats pool).Shard_pool.shard_restarts.(0) >= 1);
  wait_for "queued job runs on the replacement" (fun () -> Atomic.get after);
  Alcotest.(check bool) "replacement is ready" true
    (Shard_pool.shard_state pool 0 = `Ready);
  (* the wedged job was abandoned with its domain, recorded as dead-lettered *)
  Alcotest.(check bool) "wedged job dead-lettered" true
    (Shard_pool.dead_letter_count pool >= 1);
  (* let the abandoned domain finish so stop can join it *)
  Atomic.set release true;
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- restart budget: repeated death degrades; reinstate recovers --------- *)

let test_restart_budget_degrades () =
  let generation = Atomic.make 0 in
  let healthy = Atomic.make false in
  let pool =
    Shard_pool.create ~shards:2
      ~supervision:
        { tight_supervision with max_restarts = 2; restart_window_ms = 60_000 }
      ~init:(fun _ i ->
        if i = 0 && Atomic.fetch_and_add generation 1 > 0
           && not (Atomic.get healthy)
        then failwith "injected recovery crash";
        System.create (employee_db ()))
      ()
  in
  ok_or_raise (Shard_pool.kill pool 0);
  (* every restart's init crashes, so the budget drains and the shard
     reaches its documented terminal state *)
  wait_for "budget exhausted, shard degraded" (fun () ->
      Shard_pool.shard_state pool 0 = `Degraded);
  (* sends to a degraded shard fail fast with the typed error *)
  (match Shard_pool.post_on pool 0 (fun _ -> ()) with
  | Error (Shard_pool.Degraded 0) -> ()
  | Ok () -> Alcotest.fail "degraded shard accepted a job"
  | Error e -> Alcotest.failf "expected Degraded, got %s"
                 (Shard_pool.error_to_string e));
  (* a waiting caller gets the typed error, it does not hang *)
  (match Shard_pool.run_on pool 0 (fun _ -> ()) with
  | Error (Shard_pool.Shard_error (Shard_pool.Degraded 0)) -> ()
  | _ -> Alcotest.fail "run_on on a degraded shard must fail typed");
  (* the sibling is unaffected throughout *)
  Alcotest.(check unit) "sibling still serves" ()
    (run_on_exn pool 1 (fun _ -> ()));
  (* operator action: fix the fault, reinstate, shard comes back *)
  Atomic.set healthy true;
  Shard_pool.reinstate pool 0;
  wait_for "reinstated shard ready" (fun () ->
      Shard_pool.shard_state pool 0 = `Ready);
  Alcotest.(check unit) "reinstated shard serves" ()
    (run_on_exn pool 0 (fun _ -> ()));
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- recovery fault: a restart whose init crashes once is retried -------- *)

let test_recovery_fault_retried () =
  let attempts = Atomic.make 0 in
  let pool =
    Shard_pool.create ~shards:2 ~supervision:tight_supervision
      ~init:(fun _ i ->
        (* the replacement's first recovery attempt hits an injected fault
           (a torn read mid-delta-chain); the next sweep retries *)
        if i = 0 && Atomic.fetch_and_add attempts 1 = 1 then
          raise Oodb.Storage.Crash;
        System.create (employee_db ()))
      ()
  in
  ok_or_raise (Shard_pool.kill pool 0);
  wait_for "second recovery attempt converges" (fun () ->
      Atomic.get attempts >= 3 && Shard_pool.shard_state pool 0 = `Ready);
  Alcotest.(check unit) "shard serves after the retried recovery" ()
    (run_on_exn pool 0 (fun _ -> ()));
  Alcotest.(check bool) "both failed and successful restarts counted" true
    ((Shard_pool.stats pool).Shard_pool.shard_restarts.(0) >= 2);
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- flood: Shed_newest rejects visibly and the counters stay honest ----- *)

let flood_pool policy ~capacity =
  Shard_pool.create ~shards:2 ~inbox_capacity:capacity ~backpressure:policy
    ~init:(fun _ _ -> System.create (employee_db ()))
    ()

let test_flood_shed_newest () =
  let pool = flood_pool Shard_pool.Shed_newest ~capacity:8 in
  let gate = Atomic.make false and started = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      Atomic.set started true;
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  (* the flood must land in the inbox, not in the worker's claimed batch *)
  wait_for "the gate job started" (fun () -> Atomic.get started);
  let ran = Atomic.make 0 in
  let accepted = ref 0 and shed = ref 0 in
  for _ = 1 to 100 do
    match Shard_pool.post_on pool 0 (fun _ -> Atomic.incr ran) with
    | Ok () -> incr accepted
    | Error (Shard_pool.Overloaded 0) -> incr shed
    | Error e ->
      Alcotest.failf "expected Overloaded, got %s"
        (Shard_pool.error_to_string e)
  done;
  Alcotest.(check bool) "flood actually overflowed" true (!shed > 0);
  (* drain while the inbox is still full: its barrier must get in without
     being shed or shedding anyone *)
  let drainer = Domain.spawn (fun () -> Shard_pool.drain pool) in
  wait_for "the barrier queued past the full inbox" (fun () ->
      (Shard_pool.stats pool).Shard_pool.inbox_depth.(0) > 8);
  Alcotest.(check int) "the barrier shed nothing" !shed
    (Shard_pool.stats pool).Shard_pool.shed;
  Atomic.set gate true;
  Domain.join drainer;
  let st = Shard_pool.stats pool in
  Alcotest.(check int) "posted = accepted + shed" 100 (!accepted + !shed);
  Alcotest.(check int) "shed counter matches rejections" !shed
    st.Shard_pool.shed;
  Alcotest.(check int) "every accepted job ran" !accepted (Atomic.get ran);
  Alcotest.(check int) "completed + discarded = enqueued"
    st.Shard_pool.enqueued
    (st.Shard_pool.completed + st.Shard_pool.discarded);
  Shard_pool.stop pool

(* --- flood: Dead_letter parks the overflow; replay completes it ---------- *)

let test_flood_dead_letter_replay () =
  let pool = flood_pool Shard_pool.Dead_letter ~capacity:8 in
  let gate = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  let ran = Atomic.make 0 in
  let accepted = ref 0 and parked = ref 0 in
  for _ = 1 to 60 do
    match Shard_pool.post_on pool 0 (fun _ -> Atomic.incr ran) with
    | Ok () -> incr accepted
    | Error (Shard_pool.Dead_lettered 0) -> incr parked
    | Error e ->
      Alcotest.failf "expected Dead_lettered, got %s"
        (Shard_pool.error_to_string e)
  done;
  Alcotest.(check bool) "flood actually parked jobs" true (!parked > 0);
  Alcotest.(check int) "ring holds every parked job" !parked
    (Shard_pool.dead_letter_count pool);
  Atomic.set gate true;
  Shard_pool.drain pool;
  (* replay the parked jobs now that the shard has capacity again; replay
     goes through the same bounded path, so one pass re-accepts at most an
     inbox-full — the operator loop is replay-drain-repeat until empty *)
  let replayed = ref 0 in
  let rounds = ref 0 in
  while Shard_pool.dead_letter_count pool > 0 && !rounds < 100 do
    replayed := !replayed + Shard_pool.replay_dead_letters pool;
    Shard_pool.drain pool;
    incr rounds
  done;
  Alcotest.(check int) "replay loop re-accepts the whole ring" !parked
    !replayed;
  Alcotest.(check int) "nothing left parked" 0
    (Shard_pool.dead_letter_count pool);
  Alcotest.(check int) "accepted + replayed all ran" (!accepted + !parked)
    (Atomic.get ran);
  Shard_pool.stop pool

(* --- flood: Block absorbs a burst; an expired deadline sheds typed ------- *)

let test_flood_block () =
  let pool =
    flood_pool (Shard_pool.Block { max_wait_ms = 5_000 }) ~capacity:4
  in
  let ran = Atomic.make 0 in
  (* 200 posts into a 4-deep inbox: the producer must block on the consumer
     repeatedly, and every single job must be accepted and executed *)
  for _ = 1 to 200 do
    post_on_exn pool 0 (fun _ -> Atomic.incr ran)
  done;
  Shard_pool.drain pool;
  Alcotest.(check int) "block policy loses nothing" 200 (Atomic.get ran);
  Alcotest.(check int) "nothing shed" 0 (Shard_pool.stats pool).Shard_pool.shed;
  Shard_pool.stop pool

let test_block_deadline_expires () =
  let pool = flood_pool (Shard_pool.Block { max_wait_ms = 30 }) ~capacity:2 in
  let gate = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  let saw_overload = ref false in
  (let k = ref 0 in
   while (not !saw_overload) && !k < 20 do
     (match Shard_pool.post_on pool 0 (fun _ -> ()) with
     | Ok () -> ()
     | Error (Shard_pool.Overloaded 0) -> saw_overload := true
     | Error e ->
       Alcotest.failf "expected Overloaded, got %s"
         (Shard_pool.error_to_string e));
     incr k
   done);
  Alcotest.(check bool) "blocked post times out typed" true !saw_overload;
  Atomic.set gate true;
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- lifecycle: a stopped pool rejects everything, typed ----------------- *)

let test_stopped_pool_typed_errors () =
  let pool =
    Shard_pool.create ~shards:2
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  let o = run_on_exn pool 0 (fun sys -> new_employee (System.db sys)) in
  Shard_pool.stop pool;
  (match Shard_pool.post pool o "set_salary" [ Value.Float 1. ] with
  | Error Shard_pool.Stopped -> ()
  | _ -> Alcotest.fail "post after stop must be Error Stopped");
  (match Shard_pool.post_on pool 0 (fun _ -> ()) with
  | Error Shard_pool.Stopped -> ()
  | _ -> Alcotest.fail "post_on after stop must be Error Stopped");
  (match Shard_pool.run_on pool 0 (fun _ -> ()) with
  | Error (Shard_pool.Shard_error Shard_pool.Stopped) -> ()
  | _ -> Alcotest.fail "run_on after stop must be Error (Shard_error Stopped)");
  (* stop is idempotent *)
  Shard_pool.stop pool

(* --- run_on timeout: the wait is abandoned, the pool stays healthy ------- *)

let test_run_on_timeout () =
  let pool =
    Shard_pool.create ~shards:2
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  let gate = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  (match Shard_pool.run_on ~timeout_ms:20 pool 0 (fun _ -> 42) with
  | Error (Shard_pool.Shard_error (Shard_pool.Timed_out 0)) -> ()
  | Ok _ -> Alcotest.fail "run_on returned despite the gate"
  | Error e -> Alcotest.failf "expected Timed_out, got %s"
                 (Printexc.to_string e));
  Alcotest.(check int) "timeout counted" 1
    (Shard_pool.stats pool).Shard_pool.timeouts;
  Atomic.set gate true;
  (* the abandoned job still executes; the shard is unharmed *)
  Alcotest.(check int) "shard still serves" 7
    (run_on_exn pool 0 (fun _ -> 7));
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- each under failure: one deadline, degraded shards skipped ---------- *)

(* Two shards stuck behind gated jobs: one [each] deadline covers both, so
   the call answers after about one deadline, not one per shard. *)
let test_each_one_deadline () =
  let pool =
    Shard_pool.create ~shards:2
      ~init:(fun _ _ -> System.create (employee_db ()))
      ()
  in
  let gate = Atomic.make false in
  for i = 0 to 1 do
    post_on_exn pool i (fun _ ->
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done)
  done;
  let t0 = Unix.gettimeofday () in
  let r = Shard_pool.each ~timeout_ms:50 pool (fun i _ -> i) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with
  | Error (Shard_pool.Shard_error (Shard_pool.Timed_out 0)) -> ()
  | Ok _ -> Alcotest.fail "each returned despite the gates"
  | Error e ->
    Alcotest.failf "expected Timed_out 0, got %s" (Printexc.to_string e));
  Alcotest.(check bool)
    (Printf.sprintf "one deadline, not two (%.0f ms)" (elapsed *. 1000.))
    true
    (elapsed >= 0.05 && elapsed < 0.1);
  Alcotest.(check int) "both shards missed it" 2
    (Shard_pool.stats pool).Shard_pool.timeouts;
  Atomic.set gate true;
  Shard_pool.drain pool;
  Shard_pool.stop pool

let test_each_skips_degraded () =
  let generation = Atomic.make 0 in
  let pool =
    Shard_pool.create ~shards:3
      ~supervision:
        { tight_supervision with max_restarts = 1; restart_window_ms = 60_000 }
      ~init:(fun _ i ->
        if i = 1 && Atomic.fetch_and_add generation 1 > 0 then
          failwith "injected recovery crash";
        System.create (employee_db ()))
      ()
  in
  ok_or_raise (Shard_pool.kill pool 1);
  wait_for "shard 1 degraded" (fun () ->
      Shard_pool.shard_state pool 1 = `Degraded);
  let ran = Array.init 3 (fun _ -> Atomic.make false) in
  (match Shard_pool.each pool (fun i _ -> Atomic.set ran.(i) true) with
  | Error (Shard_pool.Shard_error (Shard_pool.Degraded 1)) -> ()
  | Ok _ -> Alcotest.fail "each succeeded over a degraded shard"
  | Error e ->
    Alcotest.failf "expected Degraded 1, got %s" (Printexc.to_string e));
  Alcotest.(check (list bool)) "the live shards still ran"
    [ true; false; true ]
    (Array.to_list (Array.map Atomic.get ran));
  Shard_pool.drain pool;
  Shard_pool.stop pool

(* --- without a supervisor: a dead shard degrades, a stopped pool drains -- *)

let test_unsupervised_kill_degrades () =
  let pool = flood_pool (Shard_pool.Block { max_wait_ms = 1_000 }) ~capacity:64 in
  let gate = Atomic.make false and started = Atomic.make false in
  post_on_exn pool 0 (fun _ ->
      Atomic.set started true;
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done);
  wait_for "the gate job started" (fun () -> Atomic.get started);
  ok_or_raise (Shard_pool.kill pool 0);
  (* queued behind the kill: its waiter must be told, not stranded *)
  let waiter = Domain.spawn (fun () -> Shard_pool.run_on pool 0 (fun _ -> ())) in
  wait_for "the waiter's job queued" (fun () ->
      (Shard_pool.stats pool).Shard_pool.inbox_depth.(0) >= 2);
  Atomic.set gate true;
  (match Domain.join waiter with
  | Error (Shard_pool.Shard_error (Shard_pool.Degraded 0)) -> ()
  | Ok () -> Alcotest.fail "a job behind the kill ran"
  | Error e -> Alcotest.failf "expected Degraded 0, got %s" (Printexc.to_string e));
  Alcotest.(check string) "shard 0 degraded" "degraded"
    (Shard_pool.state_to_string (Shard_pool.shard_state pool 0));
  (match Shard_pool.post_on pool 0 (fun _ -> ()) with
  | Error (Shard_pool.Degraded 0) -> ()
  | Ok () -> Alcotest.fail "a dead shard accepted a job"
  | Error e -> Alcotest.failf "expected Degraded 0, got %s"
                 (Shard_pool.error_to_string e));
  Alcotest.(check unit) "the live shard still serves" ()
    (run_on_exn pool 1 (fun _ -> ()));
  Shard_pool.drain pool;
  let st = Shard_pool.stats pool in
  Alcotest.(check int) "completed + discarded = enqueued"
    st.Shard_pool.enqueued
    (st.Shard_pool.completed + st.Shard_pool.discarded);
  Shard_pool.stop pool

let test_drain_after_stop () =
  let pool = flood_pool Shard_pool.Shed_newest ~capacity:8 in
  post_on_exn pool 1 (fun _ -> ());
  Shard_pool.stop pool;
  Shard_pool.drain pool;
  Alcotest.(check bool) "still stopped" true
    (Shard_pool.post_on pool 0 (fun _ -> ()) = Error Shard_pool.Stopped)

let suite =
  [
    test "kill mid-batch: acked commits survive via WAL recovery"
      test_kill_mid_batch;
    test "kill mid-batch: backlog replays in order on the successor"
      (test_kill_replays_backlog ~shards:2);
    test "shards=1: kill mid-batch: backlog replays in order"
      (test_kill_replays_backlog ~shards:1);
    test "wedged shard detected and replaced" test_wedged_shard_replaced;
    test "restart budget exhausts to degraded; reinstate recovers"
      test_restart_budget_degrades;
    test "recovery fault on restart is retried" test_recovery_fault_retried;
    test "flood: shed_newest rejects typed, counters honest"
      test_flood_shed_newest;
    test "flood: dead_letter parks overflow, replay completes"
      test_flood_dead_letter_replay;
    test "flood: block absorbs a 50x burst losslessly" test_flood_block;
    test "flood: block deadline expiry sheds typed" test_block_deadline_expires;
    test "stopped pool rejects typed" test_stopped_pool_typed_errors;
    test "run_on timeout abandons the wait" test_run_on_timeout;
    test "each: one deadline for every shard" test_each_one_deadline;
    test "each: degraded shard reported, live shards run"
      test_each_skips_degraded;
    test "unsupervised: a killed shard degrades" test_unsupervised_kill_degrades;
    test "drain on a stopped pool returns" test_drain_after_stop;
  ]

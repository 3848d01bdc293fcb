(* Domain-parallelism: the symbol table under concurrent interning, the
   shard pool (send/fire/commit across 4 shards with per-shard WAL
   recovery), and a cross-shard cascade whose trace id survives the hop. *)

open Helpers
module Symbol = Oodb.Symbol
module Wal = Oodb.Wal
module Shard_pool = Sentinel.Shard_pool
module Trace = Obs.Trace

let n_domains = 4

(* post now returns a typed result; in these tests every send must be
   accepted, so surface a rejection as a test failure. *)
let post_exn pool o meth args =
  match Shard_pool.post pool o meth args with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e)

let post_on_exn pool i f =
  match Shard_pool.post_on pool i f with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e)

(* --- concurrent interning -------------------------------------------------- *)

(* Each property run gets a fresh namespace so every iteration really
   exercises the write path, not just snapshot reads. *)
let intern_run = ref 0

(* Rotate so the domains race on the same strings in different orders. *)
let rotate k xs =
  let n = List.length xs in
  if n = 0 then xs
  else
    let k = k mod n in
    let tail = List.filteri (fun i _ -> i >= k) xs
    and head = List.filteri (fun i _ -> i < k) xs in
    tail @ head

let intern_worker strs () =
  List.map
    (fun s ->
      let id = Symbol.intern s in
      (* read back immediately: a torn rev array would surface here *)
      if not (String.equal (Symbol.name id) s) then
        failwith ("torn read: " ^ s);
      (* probe ids other domains are publishing concurrently: name must
         never raise or return garbage for any id below count *)
      let c = Symbol.count () in
      for i = c - 4 to c - 1 do
        if i >= 0 && String.length (Symbol.name i) = 0 then
          failwith "empty name below count"
      done;
      (s, id))
    strs

let intern_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"concurrent intern agrees across 4 domains"
       ~count:10
       QCheck2.Gen.(
         list_size (int_range 1 50)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 10)))
       (fun raw ->
         incr intern_run;
         let ns = Printf.sprintf "par%d/" !intern_run in
         let strs = List.map (fun s -> ns ^ s) raw in
         let doms =
           Array.init n_domains (fun k ->
               Domain.spawn (intern_worker (rotate k strs)))
         in
         let results = Array.map Domain.join doms in
         let reference = Hashtbl.create 64 in
         List.iter
           (fun (s, id) -> Hashtbl.replace reference s id)
           results.(0);
         Array.for_all
           (fun pairs ->
             List.for_all
               (fun (s, id) ->
                 Hashtbl.find_opt reference s = Some id
                 && String.equal (Symbol.name id) s)
               pairs)
           results))

(* --- 4-shard send/fire/commit with per-shard WAL recovery ------------------ *)

let with_shard_wals n f =
  let paths =
    Array.init n (fun i -> Filename.temp_file (Printf.sprintf "shard%d" i) ".wal")
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

let count_action sys counter =
  System.register_action sys "count" (fun _ _ -> incr counter)

let test_shard_pool_wal_smoke () =
  with_shard_wals n_domains (fun paths ->
      let fired = Array.init n_domains (fun _ -> ref 0) in
      let wals = Array.make n_domains None in
      let pool =
        Shard_pool.create ~shards:n_domains
          ~init:(fun _pool i ->
            let db = employee_db () in
            let sys = System.create db in
            (* attach before creating rules: rule objects live in the store
               and their firings update them, so replay needs their creates *)
            wals.(i) <- Some (Wal.attach db paths.(i));
            count_action sys fired.(i);
            ignore
              (System.create_rule sys ~name:"raise-watch"
                 ~monitor_classes:[ "employee" ]
                 ~event:(Expr.eom ~cls:"employee" "set_salary")
                 ~condition:"true" ~action:"count" ());
            sys)
          ()
      in
      (* create a handful of objects on every shard; the routing invariant
         says their OIDs must fall in the shard's residue class *)
      let oids =
        Array.init n_domains (fun i ->
            match
              Shard_pool.run_on pool i (fun sys ->
                  List.init 5 (fun _ -> new_employee (System.db sys)))
            with
            | Ok os -> os
            | Error e -> raise e)
      in
      Array.iteri
        (fun i os ->
          List.iter
            (fun o ->
              Alcotest.(check int)
                "OID residue matches owning shard" i
                (Oid.to_int o mod n_domains);
              Alcotest.(check int)
                "shard_of routes to the allocator" i
                (Shard_pool.shard_of pool o))
            os)
        oids;
      (* fire rules and commit state through the pool, routed by OID *)
      Array.iter
        (fun os ->
          List.iteri
            (fun k o ->
              post_exn pool o "set_salary"
                [ Value.Float (100. +. float_of_int k) ])
            os)
        oids;
      Shard_pool.drain pool;
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "shard %d fired once per send" i)
            5 !r)
        fired;
      let st = Shard_pool.stats pool in
      Alcotest.(check int) "no contained failures" 0
        (Array.fold_left ( + ) 0 st.Shard_pool.shard_failed);
      (* flush and close each shard's log on its own domain *)
      for i = 0 to n_domains - 1 do
        match
          Shard_pool.run_on pool i (fun _ ->
              match wals.(i) with Some w -> Wal.detach w | None -> ())
        with
        | Ok () -> ()
        | Error e -> raise e
      done;
      Shard_pool.stop pool;
      (* per-shard recovery: each WAL replays into a fresh store and must
         reproduce exactly that shard's objects and final salaries *)
      Array.iteri
        (fun i os ->
          let db2 = employee_db () in
          let _sys2 = System.create db2 in
          ignore (Wal.replay db2 paths.(i));
          Db.configure_shard db2 ~index:i ~of_:n_domains;
          List.iteri
            (fun k o ->
              Alcotest.(check bool) "object recovered" true (Db.exists db2 o);
              Alcotest.check value "committed salary recovered"
                (Value.Float (100. +. float_of_int k))
                (Db.get db2 o "salary"))
            os;
          (* allocation resumes in the shard's residue class *)
          let fresh = new_employee db2 in
          Alcotest.(check int) "post-recovery OID keeps the residue" i
            (Oid.to_int fresh mod n_domains))
        oids)

(* --- cross-shard cascade keeps its trace id -------------------------------- *)

let test_cross_shard_trace () =
  let partner = Array.make 1 (Oid.of_int 0) in
  let pool = ref None in
  let p () = match !pool with Some p -> p | None -> assert false in
  let created =
    Shard_pool.create ~shards:n_domains
      ~init:(fun _ i ->
        let db = employee_db () in
        let sys = System.create db in
        System.register_action sys "forward" (fun _ _ ->
            (* hop shards: the partner lives in a different residue class *)
            post_exn (p ()) partner.(0) "change_income" [ Value.Float 1. ]);
        System.register_action sys "noop" (fun _ _ -> ());
        ignore
          (System.create_rule sys
             ~name:(Printf.sprintf "hop-out-%d" i)
             ~monitor_classes:[ "employee" ]
             ~event:(Expr.eom ~cls:"employee" "set_salary")
             ~condition:"true" ~action:"forward" ());
        ignore
          (System.create_rule sys
             ~name:(Printf.sprintf "hop-in-%d" i)
             ~monitor_classes:[ "employee" ]
             ~event:(Expr.eom ~cls:"employee" "change_income")
             ~condition:"true" ~action:"noop" ());
        sys)
      ()
  in
  pool := Some created;
  let pool = created in
  let mk shard =
    match Shard_pool.run_on pool shard (fun sys -> new_employee (System.db sys))
    with
    | Ok o -> o
    | Error e -> raise e
  in
  let src = mk 1 in
  partner.(0) <- mk 3;
  Trace.set_capacity 4096;
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      post_exn pool src "set_salary" [ Value.Float 9. ];
      Shard_pool.drain pool;
      Shard_pool.stop pool;
      let spans = Trace.spans () in
      let fires label =
        List.filter
          (fun s ->
            String.equal s.Trace.sp_name "fire"
            && Helpers.contains_substring ~sub:label s.Trace.sp_label)
          spans
      in
      match (fires "hop-out", fires "hop-in") with
      | out :: _, inn :: _ ->
        Alcotest.(check bool) "spans on both sides of the hop" true true;
        Alcotest.(check int) "trace id survives the shard hop"
          out.Trace.sp_trace inn.Trace.sp_trace;
        Alcotest.(check bool) "trace id is a real cascade" true
          (out.Trace.sp_trace > 0)
      | _ -> Alcotest.fail "expected fire spans on both shards")

(* --- job-boundary containment ---------------------------------------------- *)

let test_shard_failure_contained () =
  let pool =
    Shard_pool.create ~shards:2
      ~init:(fun _ _ ->
        let db = employee_db () in
        System.create db)
      ()
  in
  let ok = ref false in
  (match Shard_pool.post_on pool 0 (fun _ -> failwith "poison") with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e));
  (match Shard_pool.post_on pool 0 (fun _ -> ok := true) with
  | Ok () -> ()
  | Error e -> raise (Shard_pool.Shard_error e));
  Shard_pool.drain pool;
  Alcotest.(check bool) "shard survives a poison job" true !ok;
  let st = Shard_pool.stats pool in
  Alcotest.(check int) "failure counted on shard 0" 1
    st.Shard_pool.shard_failed.(0);
  (match Shard_pool.recent_failures pool with
  | (0, e) :: _
    when contains_substring ~sub:"poison" (Printexc.to_string e) ->
    ()
  | _ -> Alcotest.fail "poison job missing from the failure log");
  Shard_pool.stop pool

(* --- scatter-gather: each and drain fan out to every shard at once ------- *)

let plain_pool n =
  Shard_pool.create ~shards:n ~init:(fun _ _ -> System.create (employee_db ())) ()

(* Passes only if the jobs overlap: each shard's job checks in, then waits
   (bounded) for every other shard's job to check in too.  Jobs run one
   shard after another would each give up at the bound instead. *)
let test_each_rendezvous () =
  let pool = plain_pool n_domains in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let arrived = Atomic.make 0 in
      let rendezvous _ _ =
        Atomic.incr arrived;
        let deadline = Unix.gettimeofday () +. 2.0 in
        while Atomic.get arrived < n_domains && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.0005
        done;
        Atomic.get arrived = n_domains
      in
      match Shard_pool.each pool rendezvous with
      | Ok met ->
        Alcotest.(check (list bool))
          "every shard's job met all the others"
          (List.init n_domains (fun _ -> true))
          met
      | Error e -> raise e)

(* A failing shard does not stop its siblings, and the error reported is
   the lowest-indexed shard's even when a later shard failed first. *)
let test_each_first_error_by_index () =
  let pool = plain_pool 3 in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let ran = Array.init 3 (fun _ -> Atomic.make false) in
      let job i _ =
        Atomic.set ran.(i) true;
        match i with
        | 0 ->
          Unix.sleepf 0.02;
          failwith "boom on shard 0"
        | 2 -> failwith "boom on shard 2"
        | _ -> i
      in
      (match Shard_pool.each pool job with
      | Error (Failure m) ->
        Alcotest.(check string) "shard 0's error" "boom on shard 0" m
      | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "each hid a failing shard");
      Array.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d's job ran" i)
            true (Atomic.get r))
        ran;
      (* the pool is unharmed: the next fan-out succeeds *)
      Alcotest.(check (result (list int) reject))
        "next fan-out" (Ok [ 0; 1; 2 ])
        (Shard_pool.each pool (fun i _ -> i)))

(* Inside a shard job, [each] runs that shard's part inline on the calling
   domain while the other shards answer through their mailboxes. *)
let test_each_from_inside_shard () =
  let pool = plain_pool 2 in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let nested =
        Shard_pool.run_on ~timeout_ms:5_000 pool 1 (fun _ ->
            let outer = Domain.self () in
            Shard_pool.each ~timeout_ms:2_000 pool (fun i _ ->
                (i, Domain.self () = outer)))
      in
      match nested with
      | Ok (Ok [ (0, false); (1, true) ]) -> ()
      | Ok (Ok _) -> Alcotest.fail "shard 1's part did not run inline"
      | Ok (Error e) | Error e ->
        Alcotest.failf "nested each failed: %s" (Printexc.to_string e))

(* Chains of jobs, each hop posted from the shard it runs on to the next:
   drain must not return while a hop is still in flight. *)
let test_drain_with_cascades () =
  let pool = plain_pool n_domains in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let hops = Atomic.make 0 in
      let rec hop depth i _ =
        Atomic.incr hops;
        if depth > 0 then begin
          let next = (i + 1) mod n_domains in
          post_on_exn pool next (hop (depth - 1) next)
        end
      in
      let chains = 8 and depth = 50 in
      for c = 0 to chains - 1 do
        let i = c mod n_domains in
        post_on_exn pool i (hop depth i)
      done;
      Shard_pool.drain pool;
      Alcotest.(check int) "every hop ran before drain returned"
        (chains * (depth + 1)) (Atomic.get hops);
      let st = Shard_pool.stats pool in
      Alcotest.(check int) "nothing in flight" st.Shard_pool.enqueued
        (st.Shard_pool.completed + st.Shard_pool.discarded))

(* A synchronous [run_on] counts its job before it releases the caller, so
   on an otherwise idle pool the books balance the moment it returns. *)
let test_run_on_counted_before_reply () =
  let pool = plain_pool 2 in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let unbalanced = ref 0 in
      for k = 1 to 20_000 do
        (match Shard_pool.run_on pool (k mod 2) (fun _ -> ()) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "run_on: %s" (Printexc.to_string e));
        let st = Shard_pool.stats pool in
        if
          st.Shard_pool.completed + st.Shard_pool.discarded
          <> st.Shard_pool.enqueued
        then incr unbalanced
      done;
      Alcotest.(check int) "stats read unbalanced right after run_on" 0
        !unbalanced)

let suite =
  [
    intern_prop;
    test "4-shard send/fire/commit with per-shard WAL recovery"
      test_shard_pool_wal_smoke;
    test "cross-shard cascade keeps one trace id" test_cross_shard_trace;
    test "poison job is contained per shard" test_shard_failure_contained;
    test "each runs every shard's job at once" test_each_rendezvous;
    test "each attempts every shard, reports the first by index"
      test_each_first_error_by_index;
    test "each inside a shard job runs that shard inline"
      test_each_from_inside_shard;
    test "drain waits out cross-shard cascades" test_drain_with_cascades;
    test "run_on is counted before its caller resumes"
      test_run_on_counted_before_reply;
  ]

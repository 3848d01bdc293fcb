(* The wire layer: frame codec robustness (roundtrip, truncation, CRC
   bit-flips, version mismatch), the TCP server/client pair, and the
   differential guarantee — a batch ingested over the wire produces the
   same firings, audit entries and dead letters as the same batch through
   the in-process [System.ingest]. *)

open Helpers
module Prng = Workloads.Prng
module Audit = Sentinel.Audit
module Shard_pool = Sentinel.Shard_pool
module Frame = Net.Frame
module Server = Net.Server
module Client = Net.Sentinel_client

(* --- frame codec ----------------------------------------------------------- *)

let gen_str = QCheck2.Gen.(string_size ~gen:printable (int_bound 40))

let gen_frame =
  let open QCheck2.Gen in
  let small = int_bound 0xFFFF in
  oneof
    [
      map2 (fun v c -> Frame.Hello { version = v; client = c }) small gen_str;
      map2
        (fun t evs -> Frame.Send_many { trace = t; events = evs })
        nat
        (list_size (int_bound 8) gen_str);
      map3
        (fun n cs e -> Frame.Subscribe { name = n; classes = cs; expr = e })
        gen_str
        (list_size (int_bound 4) gen_str)
        gen_str;
      map (fun id -> Frame.Unsubscribe { sub_id = id }) small;
      map2 (fun c p -> Frame.Query { cls = c; pred = p }) gen_str gen_str;
      return Frame.Drain;
      return Frame.Stats_req;
      map (fun tk -> Frame.Ping { token = tk }) nat;
      map2 (fun v s -> Frame.Hello_ack { version = v; shards = s }) small small;
      map (fun c -> Frame.Ack { count = c }) small;
      map (fun id -> Frame.Sub_ack { sub_id = id }) small;
      map2
        (fun id is -> Frame.Notify { sub_id = id; instances = is })
        small
        (list_size (int_bound 8) gen_str);
      map
        (fun rows -> Frame.Rows { rows })
        (list_size (int_bound 5)
           (triple nat gen_str (list_size (int_bound 4) (pair gen_str gen_str))));
      map (fun n -> Frame.Query_done { total = n }) small;
      return Frame.Drain_done;
      map (fun s -> Frame.Stats { text = s }) gen_str;
      map (fun tk -> Frame.Pong { token = tk }) nat;
      map2 (fun c m -> Frame.Err { code = c; msg = m }) small gen_str;
    ]

let test_frame_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"frame decode . encode = id" ~count:500 gen_frame
       (fun msg -> Frame.decode (Frame.encode msg) = msg))

let test_truncated_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"truncated frames rejected" ~count:100
       QCheck2.Gen.(pair gen_frame (int_bound 1000))
       (fun (msg, cut) ->
         let s = Frame.encode msg in
         let cut = cut mod max 1 (String.length s) in
         match Frame.decode (String.sub s 0 cut) with
         | _ -> false
         | exception Frame.Frame_error _ -> true))

let test_bitflip_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bit-flipped frames rejected" ~count:300
       QCheck2.Gen.(triple gen_frame (int_bound 10_000) (int_bound 7))
       (fun (msg, pos, bit) ->
         let s = Frame.encode msg in
         let pos = pos mod String.length s in
         let b = Bytes.of_string s in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
         let s' = Bytes.unsafe_to_string b in
         (* any single-bit corruption must fail to decode to the original:
            header flips break magic/flags/length/tag/CRC checks, payload
            flips break the CRC, version-byte flips raise Version_mismatch *)
         match Frame.decode s' with
         | msg' -> msg' <> msg && pos = 5  (* only a tag flip could decode *)
         | exception (Frame.Frame_error _ | Frame.Version_mismatch _) -> true))

let test_event_codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire event codec roundtrips" ~count:300
       QCheck2.Gen.(
         triple (int_bound 100_000)
           (string_size ~gen:printable (int_range 1 20))
           (list_size (int_bound 4)
              (oneof
                 [
                   map (fun f -> Oodb.Value.Float f) (float_bound_inclusive 1e6);
                   map (fun i -> Oodb.Value.Int i) (int_bound 1_000_000);
                   map (fun s -> Oodb.Value.Str s) gen_str;
                 ])))
       (fun (o, m, ps) ->
         let ev = (Oid.of_int o, m, ps) in
         Events.Codec.decode_event (Events.Codec.encode_event ev) = ev))

(* A %XX escape cut short — in the method or in a parameter — is a parse
   error, never a literal percent sign. *)
let test_truncated_escape_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"truncated escapes rejected" ~count:300
       QCheck2.Gen.(
         triple
           (string_size ~gen:(oneofl [ 'a'; 'b'; 'x'; '_'; '0' ]) (int_bound 8))
           (oneofl [ ""; "4"; "E" ])
           bool)
       (fun (prefix, digits, in_meth) ->
         let field = prefix ^ "%" ^ digits in
         let input =
           if in_meth then "ev(1," ^ field ^ ",)" else "ev(1,m,s%3A" ^ field ^ ")"
         in
         match Events.Codec.decode_event input with
         | _ -> false
         | exception Oodb.Errors.Parse_error _ -> true))

(* --- server fixtures ------------------------------------------------------- *)

(* A pool whose every shard carries the employee schema, a counting rule on
   set_salary, an audit trail, and [objects] employees. *)
let mk_pool ?(shards = 1) ?(objects = 8) ?(rule = true) () =
  let audits = Array.make shards None in
  let fired = Array.init shards (fun _ -> Atomic.make 0) in
  let pool =
    Shard_pool.create ~shards
      ~init:(fun _pool i ->
        let db = employee_db () in
        let sys = System.create db in
        audits.(i) <- Some (Audit.attach sys);
        System.register_action sys "count" (fun _ _ -> Atomic.incr fired.(i));
        if rule then
          ignore
            (System.create_rule sys ~name:"salary-watch"
               ~monitor_classes:[ "employee" ]
               ~event:(Expr.eom ~cls:"employee" "set_salary")
               ~condition:"true" ~action:"count" ());
        let rng = Prng.create (97 + i) in
        ignore
          (Workloads.Payroll.populate db rng ~managers:1
             ~employees:(max 1 (objects / shards)));
        sys)
      ()
  in
  (pool, fired, audits)

let with_server ?shards ?objects ?rule ?outlet_capacity ?outlet_policy
    ?so_sndbuf ?flush_max f =
  let pool, fired, audits = mk_pool ?shards ?objects ?rule () in
  let server =
    Server.create ?outlet_capacity ?outlet_policy ?so_sndbuf ?flush_max ~pool
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Shard_pool.stop pool)
    (fun () -> f server pool fired audits)

let with_client server f =
  let client =
    Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
  in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

(* Poll until the predicate holds or the deadline passes. *)
let eventually ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let employee_oids pool =
  match
    Shard_pool.each pool (fun _ sys ->
        Oodb.Db.extent (System.db sys) "employee")
  with
  | Ok per_shard -> List.concat per_shard
  | Error e -> raise e

(* --- handshake and version mismatch ---------------------------------------- *)

let test_handshake_and_ping () =
  with_server ~shards:2 (fun server _pool _ _ ->
      with_client server (fun client ->
          Alcotest.(check int) "shards" 2 (Client.shards client);
          let rtt = Client.ping client in
          Alcotest.(check bool) "rtt sane" true (rtt >= 0. && rtt < 5.)))

let test_version_mismatch () =
  with_server (fun server _pool _ _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          ignore
            (Frame.write_fd fd ~version:9
               (Frame.Hello { version = 9; client = "old" }));
          match Frame.read_fd fd with
          | Frame.Err { code; msg }, _ ->
            Alcotest.(check int) "err_version" Frame.err_version code;
            Alcotest.(check bool) "names both versions" true
              (contains_substring ~sub:"protocol 1" msg)
          | frame, _ ->
            Alcotest.failf "expected Err, got tag 0x%02x" (Frame.tag frame)))

let test_client_version_exception () =
  (* the client raises a typed Version_mismatch when the server says no *)
  with_server (fun server _pool _ _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          (* a well-framed v1 Hello whose payload claims an old version *)
          ignore
            (Frame.write_fd fd (Frame.Hello { version = 9; client = "old" }));
          match Frame.read_fd fd with
          | Frame.Err { code; _ }, _ ->
            Alcotest.(check int) "err_version" Frame.err_version code
          | _ -> Alcotest.fail "expected Err"))

let test_bad_escape_is_request_error () =
  with_server (fun server _pool _ _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          ignore
            (Frame.write_fd fd
               (Frame.Hello { version = Frame.version; client = "raw" }));
          (match Frame.read_fd fd with
          | Frame.Hello_ack _, _ -> ()
          | _ -> Alcotest.fail "expected Hello_ack");
          ignore
            (Frame.write_fd fd
               (Frame.Send_many { trace = 0; events = [ "ev(1,set_salary%2,)" ] }));
          match Frame.read_fd fd with
          | Frame.Err { code; _ }, _ ->
            Alcotest.(check int) "err_request" Frame.err_request code
          | frame, _ ->
            Alcotest.failf "expected Err, got tag 0x%02x" (Frame.tag frame)))

(* A Send_many whose n-th event is malformed is rejected whole: one
   [err_request] reply, no event of it ingested, and the connection goes
   on serving. *)
let test_malformed_nth_event_rejects_batch () =
  with_server ~shards:2 (fun server pool fired _ ->
      let oids = employee_oids pool in
      let salaries () =
        match
          Shard_pool.each pool (fun _ sys ->
              let db = System.db sys in
              List.map
                (fun o -> (Oid.to_int o, Oodb.Db.get db o "salary"))
                (Oodb.Db.extent db "employee"))
        with
        | Ok per_shard -> List.sort compare (List.concat per_shard)
        | Error e -> raise e
      in
      let total_fired () =
        Array.fold_left (fun acc c -> acc + Atomic.get c) 0 fired
      in
      let before = salaries () in
      let good k =
        Events.Codec.encode_event
          ( List.nth oids (k mod List.length oids),
            "set_salary",
            [ Value.Float (5000. +. float_of_int k) ] )
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          ignore
            (Frame.write_fd fd
               (Frame.Hello { version = Frame.version; client = "raw" }));
          (match Frame.read_fd fd with
          | Frame.Hello_ack _, _ -> ()
          | _ -> Alcotest.fail "expected Hello_ack");
          let n = 6 in
          List.iter
            (fun bad ->
              let events =
                List.init n (fun k ->
                    if k = bad then "ev(1,set_salary,f%3A0x1p)" else good k)
              in
              ignore
                (Frame.write_fd fd (Frame.Send_many { trace = 0; events }));
              (* the Pong comes next: the rejected batch had one reply *)
              ignore (Frame.write_fd fd (Frame.Ping { token = bad }));
              (match Frame.read_fd fd with
              | Frame.Err { code; _ }, _ ->
                Alcotest.(check int) "err_request" Frame.err_request code
              | frame, _ ->
                Alcotest.failf "event %d bad: expected Err, got tag 0x%02x" bad
                  (Frame.tag frame));
              match Frame.read_fd fd with
              | Frame.Pong { token }, _ ->
                Alcotest.(check int) "pong right after the Err" bad token
              | frame, _ ->
                Alcotest.failf "expected Pong, got tag 0x%02x"
                  (Frame.tag frame))
            [ 0; 3; n - 1 ];
          Alcotest.(check int) "nothing ingested" 0
            (Server.stats server).Server.events_ingested;
          Alcotest.(check int) "nothing fired" 0 (total_fired ());
          Alcotest.(check bool) "no salary changed" true (salaries () = before);
          ignore
            (Frame.write_fd fd
               (Frame.Send_many
                  { trace = 0; events = List.init n (fun k -> good k) }));
          match Frame.read_fd fd with
          | Frame.Ack { count }, _ ->
            Alcotest.(check int) "the next batch is acked" n count;
            Alcotest.(check bool) "and fires" true
              (eventually (fun () -> total_fired () = n))
          | frame, _ ->
            Alcotest.failf "expected Ack, got tag 0x%02x" (Frame.tag frame)))

(* --- wire vs in-process differential --------------------------------------- *)

let outcome_tag = function
  | Audit.Fired -> "fired"
  | Audit.Condition_false -> "cond-false"
  | Audit.Aborted m -> "aborted:" ^ m
  | Audit.Action_error e -> "action-error:" ^ Printexc.to_string e
  | Audit.Contained e -> "contained:" ^ Printexc.to_string e
  | Audit.Quarantined e -> "quarantined:" ^ Printexc.to_string e

let gen_batch rng objs n =
  List.init n (fun _ ->
      let target = Prng.choice rng objs in
      match Prng.int rng 3 with
      | 0 -> (target, "set_salary", [ Value.Float (Prng.float rng 100.) ])
      | 1 -> (target, "change_income", [ Value.Float (Prng.float rng 100.) ])
      | _ -> (target, "get_age", []))

(* Everything observable about a run, from the audit trail and counters. *)
let observe_sys sys audit fired =
  let audit_entries =
    List.map
      (fun (e : Audit.entry) -> (e.e_rule_name, outcome_tag e.e_outcome, e.e_at))
      (Audit.entries audit)
  in
  (fired, audit_entries, List.length (System.dead_letters sys))

let test_wire_differential () =
  List.iter
    (fun (seed, n) ->
      (* reference: the same fixture driven through in-process ingest *)
      let ref_obs =
        let db = employee_db () in
        let sys = System.create db in
        let audit = Audit.attach sys in
        let fired = ref 0 in
        System.register_action sys "count" (fun _ _ -> incr fired);
        ignore
          (System.create_rule sys ~name:"salary-watch"
             ~monitor_classes:[ "employee" ]
             ~event:(Expr.eom ~cls:"employee" "set_salary")
             ~condition:"true" ~action:"count" ());
        let rng = Prng.create 97 in
        ignore (Workloads.Payroll.populate db rng ~managers:1 ~employees:8);
        let objs = Array.of_list (Oodb.Db.extent db "employee") in
        let batch = gen_batch (Prng.create seed) objs n in
        (match System.ingest sys batch with
        | Ok _ -> ()
        | Error e -> raise e);
        observe_sys sys audit !fired
      in
      (* candidate: identical fixture behind the server, batch over the wire *)
      let wire_obs =
        with_server ~shards:1 ~objects:8 (fun server pool fired audits ->
            let objs = Array.of_list (employee_oids pool) in
            let batch = gen_batch (Prng.create seed) objs n in
            with_client server (fun client ->
                List.iter (fun ev -> Client.send client ev) batch;
                ignore (Client.flush client);
                Client.drain client);
            Shard_pool.drain pool;
            let sys = Shard_pool.system pool 0 in
            observe_sys sys (Option.get audits.(0)) (Atomic.get fired.(0)))
      in
      let (r_f, r_a, r_d) = ref_obs and (w_f, w_a, w_d) = wire_obs in
      Alcotest.(check int) "firings" r_f w_f;
      Alcotest.(check bool) "audit entries" true (r_a = w_a);
      Alcotest.(check int) "dead letters" r_d w_d;
      Alcotest.(check bool) "non-trivial" true (r_f > 0))
    [ (3, 20); (7, 64); (11, 130) ]

(* --- subscribe / notify ---------------------------------------------------- *)

let test_subscribe_notify () =
  with_server ~shards:2 ~rule:false (fun server pool _ _ ->
      with_client server (fun client ->
          let got = Atomic.make 0 in
          let sub =
            Client.subscribe client ~name:"watch" ~classes:[ "employee" ]
              (Expr.eom ~cls:"employee" "set_salary")
              (fun instances ->
                ignore (Atomic.fetch_and_add got (List.length instances)))
          in
          let objs = employee_oids pool in
          List.iteri
            (fun i oid ->
              Client.send client
                (oid, "set_salary", [ Value.Float (float_of_int (50 + i)) ]))
            objs;
          ignore (Client.flush client);
          Client.drain client;
          let expected = List.length objs in
          Alcotest.(check bool) "all notifications arrive" true
            (eventually (fun () -> Atomic.get got = expected));
          (* after unsubscribe, further events stay silent *)
          Client.unsubscribe client sub;
          List.iter
            (fun oid ->
              Client.send client (oid, "set_salary", [ Value.Float 1. ]))
            objs;
          ignore (Client.flush client);
          Client.drain client;
          Thread.delay 0.1;
          Alcotest.(check int) "no post-unsubscribe notifications" expected
            (Atomic.get got);
          let s = Server.stats server in
          Alcotest.(check int) "subscription gauge back to zero" 0
            s.Server.subscriptions_active))

(* --- query ----------------------------------------------------------------- *)

let test_query_streams_rows () =
  with_server ~shards:2 ~objects:10 (fun server _pool _ _ ->
      with_client server (fun client ->
          let rows = Client.query client ~cls:"employee" ~pred:"true" in
          Alcotest.(check bool) "rows from every shard" true
            (List.length rows >= 10);
          List.iter
            (fun (_oid, cls, attrs) ->
              (* the deep employee extent includes the manager subclass *)
              Alcotest.(check bool) "class" true
                (cls = "employee" || cls = "manager");
              Alcotest.(check bool) "has salary attr" true
                (List.mem_assoc "salary" attrs))
            rows;
          (* bad predicate surfaces as a typed request error *)
          match Client.query client ~cls:"employee" ~pred:"salary >" with
          | _ -> Alcotest.fail "expected Server_error"
          | exception Client.Server_error { code; _ } ->
            Alcotest.(check int) "err_request" Frame.err_request code))

(* --- coalesced replies ------------------------------------------------------ *)

(* With two rows per frame a query's reply is many frames, queued at once
   and written together: every row arrives, in shard order, and the client
   only returns once Query_done (the last frame) is read. *)
let test_query_reply_coalesced () =
  with_server ~shards:2 ~objects:12 ~flush_max:2 (fun server pool _ _ ->
      let expected =
        match
          Shard_pool.each pool (fun _ sys ->
              Oodb.Query.select (System.db sys) "employee" Oodb.Query.True
              |> List.map Oodb.Oid.to_int)
        with
        | Ok per_shard -> List.concat per_shard
        | Error e -> raise e
      in
      with_client server (fun client ->
          let rows = Client.query client ~cls:"employee" ~pred:"true" in
          Alcotest.(check (list int)) "every row, in order" expected
            (List.map (fun (oid, _, _) -> oid) rows);
          let n = List.length rows in
          Alcotest.(check bool) "spans several Rows frames" true (n > 4);
          (* the server has sent this connection a Hello_ack, then the
             Rows frames and Query_done; the writer counts a write's frames
             after the write returns, so wait for the count *)
          let sent = 1 + ((n + 1) / 2) + 1 in
          Alcotest.(check bool)
            "frames_out counts frames, not writes" true
            (eventually (fun () ->
                 (Server.stats server).Server.frames_out = sent))))

(* An error reply queued just before the server hangs up still reaches the
   peer: the close waits for the writer to put it on the wire. *)
let test_err_flushed_before_close () =
  with_server (fun server _pool _ _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          let junk = Bytes.of_string "JUNKJUNKJUNKJUNK" in
          ignore (Unix.write fd junk 0 (Bytes.length junk));
          (match Frame.read_fd fd with
          | Frame.Err { code; _ }, _ ->
            Alcotest.(check int) "err_frame" Frame.err_frame code
          | frame, _ ->
            Alcotest.failf "expected Err, got tag 0x%02x" (Frame.tag frame));
          match Frame.read_fd fd with
          | exception End_of_file -> ()
          | _ -> Alcotest.fail "expected the server to close"))

(* --- a rolled-back batch is never acked ------------------------------------- *)

(* One shard, a rule whose action raises under the default Propagate policy:
   the batch rolls back, so the client gets an error, not an Ack, and the
   server does not count its events as ingested. *)
let test_rolled_back_batch_not_acked () =
  let pool =
    Shard_pool.create ~shards:1
      ~init:(fun _ _ ->
        let db = employee_db () in
        let sys = System.create db in
        System.register_action sys "explode" (fun _ _ -> failwith "explode");
        ignore
          (System.create_rule sys ~name:"explode-on-raise"
             ~monitor_classes:[ "employee" ]
             ~event:(Expr.eom ~cls:"employee" "set_salary")
             ~condition:"true" ~action:"explode" ());
        ignore
          (Workloads.Payroll.populate db (Prng.create 3) ~managers:1
             ~employees:4);
        sys)
      ()
  in
  let server = Server.create ~pool () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Shard_pool.stop pool)
    (fun () ->
      let oid = List.hd (employee_oids pool) in
      let salary () =
        Oodb.Db.get (System.db (Shard_pool.system pool 0)) oid "salary"
      in
      let before = salary () in
      with_client server (fun client ->
          Client.send client (oid, "set_salary", [ Value.Float 12345. ]);
          match Client.flush client with
          | n -> Alcotest.failf "rolled-back batch acked (%d events)" n
          | exception Client.Server_error { code; _ } ->
            Alcotest.(check int) "err_degraded" Frame.err_degraded code);
      Alcotest.(check int) "events_ingested unchanged" 0
        (Server.stats server).Server.events_ingested;
      Alcotest.check value "the batch rolled back" before (salary ()))

(* --- slow consumer: exact shed accounting ---------------------------------- *)

let test_slow_consumer_shed_accounting () =
  (* Raw subscriber that never reads its socket + tiny outlet + tiny kernel
     send buffer: the writer jams against TCP backpressure, the outlet
     fills, Shed_newest drops the rest — and the books must balance:
     produced = enqueued + shed + parked. *)
  with_server ~rule:false ~outlet_capacity:4 ~outlet_policy:Shard_pool.Shed_newest
    ~so_sndbuf:4096
    (fun server pool _ _ ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          ignore
            (Frame.write_fd fd
               (Frame.Hello { version = Frame.version; client = "lazy" }));
          (match Frame.read_fd fd with
          | Frame.Hello_ack _, _ -> ()
          | _ -> Alcotest.fail "expected Hello_ack");
          ignore
            (Frame.write_fd fd
               (Frame.Subscribe
                  {
                    name = "lazy";
                    classes = [ "employee" ];
                    expr =
                      Events.Codec.encode (Expr.eom ~cls:"employee" "set_salary");
                  }));
          (match Frame.read_fd fd with
          | Frame.Sub_ack _, _ -> ()
          | _ -> Alcotest.fail "expected Sub_ack");
          (* now stop reading and bury the subscriber in notifications *)
          let objs = Array.of_list (employee_oids pool) in
          let rng = Prng.create 5 in
          for _ = 1 to 40 do
            let batch =
              List.init 100 (fun _ ->
                  ( Prng.choice rng objs,
                    "set_salary",
                    [ Value.Float (Prng.float rng 100.) ] ))
            in
            match Shard_pool.ingest pool batch with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Shard_pool.error_to_string e)
          done;
          Shard_pool.drain pool;
          let ok =
            eventually (fun () ->
                let s = Server.stats server in
                s.Server.notifications_produced
                = s.Server.notifications_enqueued + s.Server.notifications_shed
                  + s.Server.notifications_parked)
          in
          let s = Server.stats server in
          Alcotest.(check int) "produced covers the whole run" 4000
            s.Server.notifications_produced;
          Alcotest.(check bool) "slow consumer sheds" true
            (s.Server.notifications_shed > 0);
          Alcotest.(check bool)
            (Printf.sprintf "exact accounting: %d = %d + %d + %d"
               s.Server.notifications_produced s.Server.notifications_enqueued
               s.Server.notifications_shed s.Server.notifications_parked)
            true ok))

(* --- reconnection ---------------------------------------------------------- *)

let test_connect_refused_bounded () =
  (* nothing listens here: the client must give up after max_attempts *)
  let t0 = Unix.gettimeofday () in
  (match
     Client.connect ~max_attempts:3
       ~rand:(fun () -> 0.5)
       ~host:"127.0.0.1" ~port:1 ()
   with
  | _ -> Alcotest.fail "expected Connection_failed"
  | exception Client.Connection_failed _ -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bounded backoff" true (dt < 2.0)

let test_reconnect_resubscribes () =
  let pool, _fired, _audits = mk_pool ~rule:false () in
  Fun.protect
    ~finally:(fun () -> Shard_pool.stop pool)
    (fun () ->
      let server1 = Server.create ~pool () in
      let port = Server.port server1 in
      let client = Client.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let got = Atomic.make 0 in
          ignore
            (Client.subscribe client ~classes:[ "employee" ]
               (Expr.eom ~cls:"employee" "set_salary")
               (fun is -> ignore (Atomic.fetch_and_add got (List.length is))));
          Server.stop server1;
          (* same port, fresh server over the same pool: the next request
             reconnects with backoff and re-registers the subscription *)
          let server2 = Server.create ~port ~pool () in
          Fun.protect
            ~finally:(fun () -> Server.stop server2)
            (fun () ->
              let objs = employee_oids pool in
              List.iter
                (fun oid ->
                  Client.send client (oid, "set_salary", [ Value.Float 9. ]))
                objs;
              ignore (Client.flush client);
              Client.drain client;
              let expected = List.length objs in
              Alcotest.(check bool) "notifications after reconnect" true
                (eventually (fun () -> Atomic.get got = expected));
              let s = Client.stats client in
              Alcotest.(check bool) "reconnect counted" true
                (s.Client.reconnects >= 1))))

(* --- subscription lifecycle ---------------------------------------------- *)

let action_names pool =
  match
    Shard_pool.each pool (fun _ sys ->
        Sentinel.Function_registry.action_names (System.registry sys))
  with
  | Ok per_shard -> per_shard
  | Error e -> raise e

(* Each Subscribe registers an action on every shard; Unsubscribe and the
   cleanup of a dropped connection must take it away again. *)
let test_subscription_actions_released () =
  with_server ~shards:2 ~rule:false (fun server pool _ _ ->
      let before = action_names pool in
      let ev = Expr.eom ~cls:"employee" "set_salary" in
      with_client server (fun client ->
          for _ = 1 to 50 do
            Client.unsubscribe client
              (Client.subscribe client ~classes:[ "employee" ] ev ignore)
          done);
      Alcotest.(check (list (list string))) "released by unsubscribe" before
        (action_names pool);
      let client = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
      ignore (Client.subscribe client ~classes:[ "employee" ] ev ignore);
      ignore (Client.subscribe client ~classes:[ "manager" ] ev ignore);
      Alcotest.(check bool) "held while subscribed" true (action_names pool <> before);
      (* dropped without unsubscribing *)
      Client.close client;
      Alcotest.(check bool) "released by connection cleanup" true
        (eventually (fun () -> action_names pool = before));
      Alcotest.(check int) "no subscription rules left" 0
        (List.length (List.concat_map System.rules
           (match Shard_pool.each pool (fun _ sys -> sys) with
           | Ok l -> l
           | Error e -> raise e))))

(* A flush parked on a busy shard must not lend its trace id to the other
   threads of the server's domain, and the shard job must still run under
   the frame's id. *)
let test_parked_flush_keeps_its_trace () =
  with_server ~shards:2 ~rule:false (fun server pool _ _ ->
      let target =
        List.find (fun o -> Shard_pool.shard_of pool o = 0) (employee_oids pool)
      in
      let seen = Atomic.make [] in
      ignore
        (Shard_pool.each pool (fun _ sys ->
             Db.add_tap (System.db sys) (fun _ _ ->
                 let tr = Obs.Trace.current () in
                 let rec push () =
                   let l = Atomic.get seen in
                   if not (Atomic.compare_and_set seen l (tr :: l)) then push ()
                 in
                 push ())));
      let gate = Mutex.create () and opened = ref false and cond = Condition.create () in
      let open_gate () =
        Mutex.lock gate;
        opened := true;
        Condition.broadcast cond;
        Mutex.unlock gate
      in
      let was_on = !Obs.Trace.on in
      Obs.Trace.enable ();
      Fun.protect
        ~finally:(fun () ->
          open_gate ();
          if not was_on then Obs.Trace.disable ())
        (fun () ->
          ignore
            (Shard_pool.post_on pool 0 (fun _ ->
                 Mutex.lock gate;
                 while not !opened do
                   Condition.wait cond gate
                 done;
                 Mutex.unlock gate));
          let frames0 = (Server.stats server).Server.frames_in in
          (* the client lives in its own domain, so its own trace context
             cannot be what the checks below observe *)
          let flusher =
            Domain.spawn (fun () ->
                let client =
                  Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
                in
                Fun.protect
                  ~finally:(fun () -> Client.close client)
                  (fun () ->
                    Obs.Trace.with_trace 4242 (fun () ->
                        Client.send client (target, "set_salary", [ Value.Float 7. ]);
                        Client.flush client)))
          in
          Alcotest.(check bool) "the flush reached the server" true
            (eventually (fun () ->
                 (Server.stats server).Server.frames_in >= frames0 + 2));
          Thread.delay 0.1;
          let other = ref (-1) in
          Thread.join (Thread.create (fun () -> other := Obs.Trace.current ()) ());
          Alcotest.(check int) "another thread of the domain sees no trace" 0 !other;
          Alcotest.(check int) "nor does this one" 0 (Obs.Trace.current ());
          open_gate ();
          Alcotest.(check int) "flush acked" 1 (Domain.join flusher);
          Alcotest.(check (list int)) "the shard job ran under the frame's trace"
            [ 4242 ] (Atomic.get seen)))

let suite =
  [
    test_frame_roundtrip;
    test_truncated_rejected;
    test_bitflip_rejected;
    test_event_codec_roundtrip;
    test_truncated_escape_rejected;
    test "handshake and ping" test_handshake_and_ping;
    test "version mismatch gets a typed reply" test_version_mismatch;
    test "in-payload version mismatch rejected" test_client_version_exception;
    test "truncated escape answered as a bad request"
      test_bad_escape_is_request_error;
    test "a malformed n-th event rejects the whole batch"
      test_malformed_nth_event_rejects_batch;
    test "wire ingest = in-process ingest" test_wire_differential;
    test "subscribe streams notifications" test_subscribe_notify;
    test "query streams rows" test_query_streams_rows;
    test "a query's reply frames arrive whole and in order"
      test_query_reply_coalesced;
    test "error reply flushed before close" test_err_flushed_before_close;
    test "rolled-back batch on one shard is not acked"
      test_rolled_back_batch_not_acked;
    test "slow consumer shed accounting is exact"
      test_slow_consumer_shed_accounting;
    test "connection refused is bounded" test_connect_refused_bounded;
    test "reconnect re-registers subscriptions" test_reconnect_resubscribes;
    test "subscription actions are released" test_subscription_actions_released;
    test "a parked flush keeps its trace to itself" test_parked_flush_keeps_its_trace;
  ]

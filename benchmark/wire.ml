(* The wire stack both wire workloads run on (and the twin rules_dense's
   traced run peels): a 2-shard pool, each shard a full System with a
   group-commit WAL that the pool's idle hook seals, fronted by a TCP server
   on the loopback interface.  Clients connect to it like any other. *)

module Db = Oodb.Db
module Value = Oodb.Value
module Expr = Events.Expr
module System = Sentinel.System
module Pool = Sentinel.Shard_pool
module Client = Net.Sentinel_client
module Server = Net.Server
module Frame = Net.Frame
module Market = Workloads.Stock_market

let shards = 2
let group_commit = { Oodb.Wal.max_batch = 256; max_wait_us = 50_000 }

let flush_policy =
  "WAL ~sync:true (fsync on every group seal), group commit max_batch=256 \
   max_wait_us=50000, sealed by the pool's on_idle hook calling \
   System.sync_wal with no linger"

type t = {
  pool : Pool.t;
  server : Server.t;
  wal_paths : string array;
  fired : int Atomic.t array;  (** firings of each shard's watch rule *)
  seals : Samples.t array;
      (** µs per seal done by the idle hook, per shard, while tracing *)
  market : Market.market;
}

let ok_or_raise = function Ok v -> v | Error e -> raise e
let remove path = if Sys.file_exists path then Sys.remove path

(* [watch_rule] installs one class-level rule per shard that fires on every
   stock set_price and counts its firings. *)
let create ~dir ~seed ~watch_rule (shape : Gen.shape) =
  let wal_paths =
    Array.init shards (fun i ->
        Filename.concat dir (Printf.sprintf "shard-%d.wal" i))
  in
  Array.iter remove wal_paths;
  let fired = Array.init shards (fun _ -> Atomic.make 0) in
  let seals = Array.init shards (fun _ -> Samples.create ()) in
  (* The durability hook: a shard seals its open commit group whenever its
     mailbox drains, so every ack waits for a seal and concurrent acks can
     share one. *)
  let on_idle i sys =
    match System.wal sys with
    | Some w when Spans.enabled () && Oodb.Wal.pending_commits w > 0 ->
      let (), us = Spans.span ~trace:0 "wal.seal" (fun _ -> System.sync_wal sys) in
      Samples.add seals.(i) us
    | Some _ -> System.sync_wal sys
    | None -> ()
  in
  let pool =
    Pool.create ~shards ~on_idle
      ~init:(fun _ i ->
        let db = Db.create () in
        Market.install db;
        let sys = System.create ~retry_backoff:(fun _ -> ()) db in
        ignore (System.attach_wal ~sync:true ~group_commit sys wal_paths.(i));
        if watch_rule then begin
          System.register_action sys "count" (fun _ _ -> Atomic.incr fired.(i));
          ignore
            (System.create_rule sys ~name:"price-watch"
               ~monitor_classes:[ Market.stock_class ]
               ~event:(Expr.eom ~cls:Market.stock_class "set_price")
               ~condition:"true" ~action:"count" ())
        end;
        sys)
      ()
  in
  let part n i = (n / shards) + if i < n mod shards then 1 else 0 in
  let markets =
    List.init shards (fun i ->
        ok_or_raise
          (Pool.run_on pool i (fun sys ->
               Gen.populate (System.db sys)
                 (Gen.rng ~seed (Printf.sprintf "populate-%d" i))
                 {
                   shape with
                   stocks = part shape.stocks i;
                   infos = part shape.infos i;
                   portfolios = part shape.portfolios i;
                 })))
  in
  let concat f = Array.concat (List.map f markets) in
  {
    pool;
    server = Server.create ~pool ();
    wal_paths;
    fired;
    seals;
    market =
      {
        Market.stocks = concat (fun m -> m.Market.stocks);
        indexes = concat (fun m -> m.Market.indexes);
        portfolios = concat (fun m -> m.Market.portfolios);
      };
  }

(* Backoff jitter is fixed so that no randomness but the seed's reaches the
   program. *)
let connect t name =
  Client.connect ~client_name:name ~buffer_max:4096
    ~rand:(fun () -> 0.5)
    ~host:"127.0.0.1" ~port:(Server.port t.server) ()

let stop t =
  Server.stop t.server;
  for i = 0 to shards - 1 do
    ignore (Pool.run_on t.pool i System.detach_wal)
  done;
  Pool.stop t.pool;
  Array.iter remove t.wal_paths

let counters t =
  ok_or_raise (Pool.each t.pool (fun _ sys -> Counters.of_system sys))
  |> List.fold_left Counters.add Counters.zero

let pushes t = (Pool.stats t.pool).Pool.mpsc_pushes

(* Every acked write survives a restart from the bytes already written: the
   WAL files, read as they are (nothing sealed or flushed for the check),
   recover every stock to its live price. *)
let check_recovery t =
  let bad = ref 0 and total = ref 0 and error = ref "" in
  Array.iteri
    (fun i path ->
      let live =
        ok_or_raise
          (Pool.run_on t.pool i (fun sys ->
               let db = System.db sys in
               List.map
                 (fun o -> (o, Db.get db o "price"))
                 (Db.extent db Market.stock_class)))
      in
      let db = Db.create () in
      Market.install db;
      ignore (System.create db);
      let recovered =
        match Oodb.Wal.recover db ~snapshot:(path ^ ".snapshot") ~wal:path with
        | _ -> true
        | exception e ->
          error := Printf.sprintf "; shard %d: %s" i (Printexc.to_string e);
          false
      in
      List.iter
        (fun (o, v) ->
          incr total;
          if not (recovered && Db.exists db o && Db.get db o "price" = v) then incr bad)
        live)
    t.wal_paths;
  Report.check "wal recovery rebuilds every stock price" (!bad = 0)
    (Printf.sprintf "%d of %d stocks differ%s" !bad !total !error)

(* --- the closed-loop writer ---------------------------------------------- *)

type writer = {
  lat : Lat.t;  (** µs per flush round trip *)
  mutable sent : int;
  mutable acked : int;
  mutable flushes : int;
  mutable failed : int;
  mutable error : string option;
}

let writer () =
  { lat = Lat.create (); sent = 0; acked = 0; flushes = 0; failed = 0; error = None }

(* Send batches of [size] ticks and flush each, waiting for the ack before
   the next, until [finished ()].  [total] counts events sent by every
   writer. *)
let write_loop t client w ~id ~rng ~size ~total ~finished =
  let tickers = Array.length t.market.Market.stocks in
  while not (finished ()) do
    let batch = Gen.batch rng t.market ~tickers ~size in
    List.iter (Client.send client) batch;
    w.sent <- w.sent + size;
    ignore (Atomic.fetch_and_add total size);
    let traced = Spans.enabled () in
    let t0 = Spans.now_us () in
    let ok =
      match Client.flush client with
      | n ->
        w.acked <- w.acked + n;
        n = size
      | exception e ->
        if w.error = None then w.error <- Some (Printexc.to_string e);
        false
    in
    let t1 = Spans.now_us () in
    w.flushes <- w.flushes + 1;
    if not ok then w.failed <- w.failed + 1;
    Lat.add w.lat ~start:t0 ~traced (if ok then t1 -. t0 else Float.infinity);
    if traced then Spans.add ~trace:((id * 100_000_000) + w.flushes) "wire.flush" t0 t1
  done

(* --- the side channel over the wire ---------------------------------------- *)

let read_values client (q : Gen.query) =
  Client.query client ~cls:Market.stock_class ~pred:q.pred
  |> List.map (fun (_, _, attrs) ->
         match List.assoc_opt q.attr attrs with
         | Some v -> Oodb.Persist.decode_value v
         | None -> Value.Null)

(* Rule management over the wire: alternately subscribe a class-level rule
   (on an event the stream never raises) and unsubscribe it.  Each is one
   rule created or deleted on every shard. *)
let rule_churn client =
  let live = ref None in
  fun () ->
    match !live with
    | None ->
      live :=
        Some
          (Client.subscribe client ~name:"churn"
             ~classes:[ Market.financial_info_class ]
             (Expr.eom ~cls:Market.financial_info_class "set_value")
             (fun _ -> ()))
    | Some s ->
      live := None;
      Client.unsubscribe client s

(* --- the peeled pass --------------------------------------------------------- *)

(* The same seeded batches replayed one layer at a time: framing alone, then
   the wire (client flush), then the pool (Shard_pool.ingest ~wait:true), then
   each destination shard's System.ingest and System.sync_wal timed inside
   the shard's own job.  Reads are peeled the same way.  Run on an otherwise
   idle stack, one request at a time. *)
type ladder = {
  encode : Samples.t;  (** µs per batch: Codec.encode_event + Frame.encode *)
  decode : Samples.t;  (** µs per batch: Frame.decode + Codec.decode_event *)
  frame_bytes : int;
  frame_events : int;
  wire : Samples.t;  (** µs per client flush *)
  pool : Samples.t;  (** µs per Shard_pool.ingest ~wait:true *)
  sys_ingest : Samples.t;  (** µs per shard sub-batch System.ingest *)
  shard_seal : Samples.t;  (** µs per System.sync_wal after it *)
  select : Samples.t;  (** µs per shard Query.select *)
  query_wait : Samples.t;  (** µs per shard run_on round trip minus select *)
  probes : int;
  rows : int;
  bad_rows : int;
  wire_window : Counters.t;  (** engine counts over the wire pass *)
  wire_pushes : int;  (** mailbox pushes over the wire pass *)
}

let ladder t ~batches ~queries =
  let encode = Samples.create () and decode = Samples.create () in
  let frame_bytes = ref 0 and frame_events = ref 0 in
  List.iteri
    (fun k batch ->
      let trace = k + 1 in
      let frame, enc =
        Spans.span ~trace "frame.encode" (fun _ ->
            Frame.encode
              (Frame.Send_many
                 { trace; events = List.map Events.Codec.encode_event batch }))
      in
      let decoded, dec =
        Spans.span ~trace "frame.decode" (fun _ ->
            match Frame.decode frame with
            | Frame.Send_many { events; _ } ->
              List.map Events.Codec.decode_event events
            | _ -> [])
      in
      if decoded <> batch then failwith "frame round trip changed the batch";
      Samples.add encode enc;
      Samples.add decode dec;
      frame_bytes := !frame_bytes + String.length frame;
      frame_events := !frame_events + List.length batch)
    batches;
  let client = connect t "peel" in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      let wire = Samples.create () in
      let c0 = counters t and p0 = pushes t in
      List.iteri
        (fun k batch ->
          List.iter (Client.send client) batch;
          let n, us =
            Spans.span ~trace:(k + 1) "peel.wire" (fun _ -> Client.flush client)
          in
          if n <> List.length batch then failwith "peel: short ack";
          Samples.add wire us)
        batches;
      let wire_window = Counters.sub (counters t) c0
      and wire_pushes = pushes t - p0 in
      let pool = Samples.create () in
      List.iteri
        (fun k batch ->
          let r, us =
            Spans.span ~trace:(k + 1) "peel.pool" (fun _ ->
                Pool.ingest ~wait:true t.pool batch)
          in
          (match r with Ok () -> () | Error e -> failwith (Pool.error_to_string e));
          Samples.add pool us)
        batches;
      let sys_ingest = Samples.create () and shard_seal = Samples.create () in
      List.iteri
        (fun k batch ->
          let trace = k + 1 in
          for i = 0 to shards - 1 do
            let sub = List.filter (fun (o, _, _) -> Pool.shard_of t.pool o = i) batch in
            if sub <> [] then
              ignore
                (Spans.span ~trace "peel.shard" (fun parent ->
                     let a, b, c =
                       ok_or_raise
                         (Pool.run_on t.pool i (fun sys ->
                              let a = Spans.now_us () in
                              ignore (ok_or_raise (System.ingest sys sub));
                              let b = Spans.now_us () in
                              System.sync_wal sys;
                              (a, b, Spans.now_us ())))
                     in
                     if parent <> 0 then begin
                       Spans.add ~parent ~trace "system.ingest" a b;
                       Spans.add ~parent ~trace "wal.sync" b c
                     end;
                     Samples.add sys_ingest (b -. a);
                     Samples.add shard_seal (c -. b)))
          done)
        batches;
      let select = Samples.create () and query_wait = Samples.create () in
      let probes = ref 0 and rows = ref 0 and bad_rows = ref 0 in
      List.iteri
        (fun k (q : Gen.query) ->
          let trace = k + 1 in
          let values, _ =
            Spans.span ~trace "peel.query" (fun _ -> read_values client q)
          in
          List.iter (fun v -> if not (q.ok v) then incr bad_rows) values;
          let pred = Oodb.Query_parser.parse q.pred in
          for i = 0 to shards - 1 do
            let sel, rtt =
              Spans.span ~trace "peel.query.shard" (fun parent ->
                  let a, b, n, p =
                    ok_or_raise
                      (Pool.run_on t.pool i (fun sys ->
                           let p0 = Oodb.Query.probes () in
                           let a = Spans.now_us () in
                           let found =
                             Oodb.Query.select (System.db sys) Market.stock_class
                               pred
                           in
                           let b = Spans.now_us () in
                           (a, b, List.length found, Oodb.Query.probes () - p0)))
                  in
                  if parent <> 0 then Spans.add ~parent ~trace "query.select" a b;
                  probes := !probes + p;
                  rows := !rows + n;
                  b -. a)
            in
            Samples.add select sel;
            Samples.add query_wait (rtt -. sel)
          done)
        queries;
      {
        encode;
        decode;
        frame_bytes = !frame_bytes;
        frame_events = !frame_events;
        wire;
        pool;
        sys_ingest;
        shard_seal;
        select;
        query_wait;
        probes = !probes;
        rows = !rows;
        bad_rows = !bad_rows;
        wire_window;
        wire_pushes;
      })

let p50 s = Samples.percentile s 50.

(* The layer metrics a peeled pass gives.  Self times telescope: the wire
   round trip is net self + pool ingest, and pool ingest is pool self + the
   shard's System.ingest + its seal. *)
let ladder_metrics l =
  let net_self = p50 l.wire -. p50 l.pool in
  let pool_self = p50 l.pool -. p50 l.sys_ingest -. p50 l.shard_seal in
  [
    ("frame.encode_us_per_batch", p50 l.encode);
    ("frame.decode_us_per_batch", p50 l.decode);
    ("frame.bytes_per_event", Counters.ratio l.frame_bytes l.frame_events);
    ("net.self_p50_us", net_self);
    ("pool.ingest_p50_us", p50 l.pool);
    ("pool.self_p50_us", pool_self);
    ("pool.query_wait_p50_us", p50 l.query_wait);
    ("system.ingest_p50_us", p50 l.sys_ingest);
    ("query.select_p50_us", p50 l.select);
    ("query.probes_per_row", Counters.ratio l.probes l.rows);
  ]

let ladder_check l =
  Report.check "every row the peeled pass read satisfies its predicate"
    (l.bad_rows = 0)
    (Printf.sprintf "%d rows fail their read's test" l.bad_rows)

let seal_metrics t =
  let s = Samples.concat (Array.to_list t.seals) in
  [
    ("wal.seal_p50_us", Samples.percentile s 50.);
    ("wal.seal_p99_us", Samples.percentile s 99.);
  ]

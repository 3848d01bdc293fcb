(* wire_ingest and wire_mixed: closed-loop writers over the wire stack, and
   beside them the open-loop side channel of reads and rule operations on a
   connection of its own. *)

module Client = Net.Sentinel_client
module Market = Workloads.Stock_market

type spec = {
  name : string;
  shape : Gen.shape;
  writers : int;  (** closed-loop writer connections *)
  batch : int;  (** events per flush *)
  reads_per_s : float;  (** the side channel's rates *)
  rule_ops_per_s : float;
  full_events : int;  (** events in a full-size run, for the smoke's 1% *)
}

(* Mostly ingest: 2 writers flushing 128 ticks over 512 stocks, so routing
   and detection are near-trivial and net, pool and WAL dominate.  At 64
   ticks per flush the fixed cost of each round trip (thread wake-ups, the
   seal's fsync) was large enough that the host's load swung events_per_s
   by up to 30% from run to run; at 128 it is about 6%.  A read here waits
   behind whole ingest batches on both shards (about 2 ms), so the side
   channel runs at a quarter of wire_mixed's rate: at 200 reads per second
   it kept its connection half busy, and a slow spell on the host let its
   backlog grow for seconds. *)
let wire_ingest =
  {
    name = "wire_ingest";
    shape = { stocks = 512; infos = 0; portfolios = 0; index = None };
    writers = 2;
    batch = 128;
    reads_per_s = 50.;
    rule_ops_per_s = 10.;
    full_events = 2_000_000;
  }

(* Small durable writes that maintain an ordered index, beside an open-loop
   reader whose range scans fan out to both shards. *)
let wire_mixed =
  {
    name = "wire_mixed";
    shape =
      { stocks = 20_000; infos = 0; portfolios = 0; index = Some ("price", `Ordered) };
    writers = 1;
    batch = 16;
    reads_per_s = 200.;
    rule_ops_per_s = 20.;
    full_events = 600_000;
  }

let peel_batches = 300
let peel_queries = 100

let run (plan : Report.plan) spec =
  let dir =
    Filename.concat plan.out
      (Printf.sprintf "wal-%s-%d" spec.name (Unix.getpid ()))
  in
  Sys.mkdir dir 0o755;
  let shape = { spec.shape with stocks = Report.size plan spec.shape.stocks } in
  let connections = spec.writers + 1 in
  let setup () =
    let stack = Wire.create ~dir ~seed:plan.seed ~watch_rule:true shape in
    ( stack,
      List.init connections (fun k ->
          Wire.connect stack (Printf.sprintf "%s-%d" spec.name k)) )
  and teardown (stack, clients) =
    List.iter Client.close clients;
    Wire.stop stack
  in
  let (stack, clients), first_setup = Report.timed_setup setup in
  let side_client = List.nth clients (connections - 1) in
  let side_rng = Gen.rng ~seed:plan.seed "side" in
  let side =
    Side.create
      ~query:(fun () -> Gen.price_range side_rng)
      ~reads_per_s:spec.reads_per_s ~rule_ops_per_s:spec.rule_ops_per_s
      ~read:(Wire.read_values side_client)
      ~rule_op:(Wire.rule_churn side_client)
  in
  let c0 = Wire.counters stack and p0 = Wire.pushes stack in
  let total = Atomic.make 0 in
  let max_events = Report.max_events plan spec.full_events in
  let start = Spans.now_us () in
  let deadline = start +. (plan.seconds *. 1e6) in
  let finished () = Spans.now_us () >= deadline || Atomic.get total >= max_events in
  let writers = List.init spec.writers (fun _ -> Wire.writer ()) in
  let threads =
    Thread.create (fun () -> Side.run_until side ~stop:finished) ()
    :: List.mapi
         (fun k w ->
           Thread.create
             (fun () ->
               Wire.write_loop stack (List.nth clients k) w ~id:k
                 ~rng:(Gen.rng ~seed:plan.seed (Printf.sprintf "writer-%d" k))
                 ~size:spec.batch ~total ~finished)
             ())
         writers
  in
  (* A traced run alternates tracing on and off, so both halves sample the
     same stretch of the workload. *)
  if plan.traced then begin
    let window = if plan.smoke then 0.002 else 0.25 in
    while not (finished ()) do
      Spans.set_enabled (not (Spans.enabled ()));
      Thread.delay window
    done;
    Spans.set_enabled false
  end;
  List.iter Thread.join threads;
  let stop = Spans.now_us () in
  Sentinel.Shard_pool.drain stack.Wire.pool;
  let peak_rss = Report.peak_rss_mb () in
  let work = Counters.sub (Wire.counters stack) c0
  and pushes = Wire.pushes stack - p0 in
  let sum f = List.fold_left (fun a w -> a + f w) 0 writers in
  let sent = sum (fun w -> w.Wire.sent) and acked = sum (fun w -> w.Wire.acked) in
  let flushes = sum (fun w -> w.Wire.flushes) in
  let ingested = (Net.Server.stats stack.Wire.server).Net.Server.events_ingested in
  let fired = Array.fold_left (fun a c -> a + Atomic.get c) 0 stack.Wire.fired in
  let checks =
    [
      Report.check "acked = sent = server events_ingested"
        (acked = sent && ingested = acked)
        (Printf.sprintf "sent %d, acked %d, ingested %d" sent acked ingested);
      Report.check "rule firings = stock set_price events" (fired = acked)
        (Printf.sprintf "fired %d for %d events" fired acked);
      Wire.check_recovery stack;
      Report.check "every row read satisfies its predicate" (side.Side.bad_rows = 0)
        (Printf.sprintf "%d of %d rows fail their read's test" side.Side.bad_rows
           side.Side.rows);
    ]
    @ List.filter_map
        (fun (what, e) ->
          Option.map (fun e -> Report.check what false e) e)
        (("side channel", side.Side.first_error)
        :: List.map (fun w -> ("writer", w.Wire.error)) writers)
  in
  let write = Lat.merge (List.map (fun w -> w.Wire.lat) writers) in
  let window = Window.make ~start ~stop ~quiet:true write in
  let e2e ~setup_runs window =
    Report.end_to_end_values ~setup_runs ~window
      ~events_per_write:spec.batch ~write ~reads:side.Side.reads
      ~rule_ops:side.Side.rule_ops ~peak_rss
  in
  let layers, peel_checks =
    if not plan.traced then ([], [])
    else begin
      let rng = Gen.rng ~seed:plan.seed "peel" in
      let tickers = Array.length stack.Wire.market.Market.stocks in
      let batches =
        List.init (Report.size plan peel_batches) (fun _ ->
            Gen.batch rng stack.Wire.market ~tickers ~size:spec.batch)
      in
      let queries =
        List.init (Report.size plan peel_queries) (fun _ -> Gen.price_range rng)
      in
      Spans.set_enabled true;
      let ladder = Wire.ladder stack ~batches ~queries in
      let bare =
        Peel.bare_send ~seed:plan.seed ~n:(Report.size plan Peel.bare_events) shape
      in
      Spans.set_enabled false;
      ( Wire.ladder_metrics ladder
        @ Wire.seal_metrics stack
        @ Counters.engine_metrics work ~events:acked
        @ Counters.wal_metrics work ~events:acked ~flushes
        @ [
            ("pool.pushes_per_flush", Counters.ratio pushes flushes);
            ("oodb.send_bare_p50_us", bare);
            ("gen.lag_p99_ms", Samples.percentile side.Side.lag 99. /. 1000.);
          ]
        @ Peel.trace_metrics ~write ~window
            ~peeled_write:(Samples.percentile ladder.Wire.wire 50.),
        [ Wire.ladder_check ladder ] )
    end
  in
  teardown (stack, clients);
  let setup_runs = Report.more_setups plan ~first:first_setup ~setup ~teardown in
  Sys.rmdir dir;
  {
    Report.workload = spec.name;
    metrics = e2e ~setup_runs window @ layers;
    window;
    all_windows = e2e ~setup_runs (Window.make ~start ~stop ~quiet:false write);
    attempted = flushes + side.Side.attempted;
    failed = sum (fun w -> w.Wire.failed) + side.Side.failed;
    checks = checks @ peel_checks;
    counts =
      [
        ("events_acked", acked);
        ("flushes", flushes);
        ("reads", Lat.count side.Side.reads);
        ("rule_ops", Lat.count side.Side.rule_ops);
        ("rows_read", side.Side.rows);
        ("stocks", shape.stocks);
        ("connections", connections);
      ];
    setup_runs;
    latencies =
      Report.kept_latencies ~window ~write ~reads:side.Side.reads
        ~rule_ops:side.Side.rule_ops;
    self_times = [];
  }

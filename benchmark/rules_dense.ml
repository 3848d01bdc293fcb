(* rules_dense: the paper's own cost model on one System, with no pool, WAL
   or server on the path.  1,000 rules over 100,000 stocks; one Db.send per
   market tick; the oldest churn rule replaced every 1,000 sends. *)

module Db = Oodb.Db
module Oid = Oodb.Oid
module Value = Oodb.Value
module Expr = Events.Expr
module System = Sentinel.System
module Market = Workloads.Stock_market
module Prng = Workloads.Prng

let name = "rules_dense"

(* Reads look a stock up by symbol through a hash index, which no write
   touches, so reads leave the per-event write cost as the paper models it. *)
let shape =
  { Gen.stocks = 100_000; infos = 16; portfolios = 64; index = Some ("symbol", `Hash) }

let rules_per_kind = 250
let churn_every = 1_000
let oracle_events = 20_000
let full_events = 400_000
let peel_batches = 300
let peel_queries = 100

type engine = {
  db : Db.t;
  sys : System.t;
  market : Market.market;
  churn : Oid.t Queue.t;  (** live churn rules, oldest first *)
  churn_rng : Prng.t;
  mutable churn_seq : int;
  retired : (string, int * int) Hashtbl.t;
      (** fired and triggered counts of deleted churn rules, by name *)
  mutable retired_counts : Counters.t;  (** their detector counts *)
}

let stock o = Oid.to_int o.Oodb.Occurrence.source

let new_price (inst : Events.Detector.instance) =
  match List.rev inst.constituents with
  | { Oodb.Occurrence.params = Value.Float p :: _; _ } :: _ -> p
  | _ -> Float.nan

let register sys (market : Market.market) =
  System.register_condition sys "below-60" (fun _ inst -> new_price inst < 60.);
  (* the paper's Purchase condition: IBM!GetPrice < $80 and DowJones!Change
     < 3.4% *)
  System.register_condition sys "cheap-and-calm" (fun db inst ->
      List.for_all
        (fun (o : Oodb.Occurrence.t) ->
          if o.source_class = Market.stock_class then
            Value.to_float (Db.get db o.source "price") < 80.
          else Value.to_float (Db.get db o.source "change") < 3.4)
        inst.constituents);
  System.register_action sys "note" (fun _ _ -> ());
  System.register_action sys "purchase" (fun db inst ->
      List.iter
        (fun (o : Oodb.Occurrence.t) ->
          if o.source_class = Market.stock_class then
            let p = market.portfolios.(stock o mod Array.length market.portfolios) in
            ignore (Db.send db p "purchase" [ Value.Obj o.source; Value.Int 1 ]))
        inst.constituents)

let price_event s = Expr.eom ~cls:Market.stock_class ~sources:[ s ] "set_price"

let value_event i =
  Expr.eom ~cls:Market.financial_info_class ~sources:[ i ] "set_value"

let create_churn_rule e ~name s =
  System.create_rule e.sys ~name ~monitor:[ s ] ~event:(price_event s)
    ~condition:"below-60" ~action:"note" ()

(* The rule set: instance-level primitive (the churn set), conjunction (the
   Purchase shape) and sequence rules, and class-level rules on a method the
   stream never calls. *)
let build (plan : Report.plan) ~routing =
  let db = Db.create () in
  Market.install db;
  let sys = System.create ~routing ~retry_backoff:(fun _ -> ()) db in
  let market =
    Gen.populate db (Gen.rng ~seed:plan.seed "populate")
      { shape with stocks = Report.size plan shape.stocks }
  in
  register sys market;
  let e =
    {
      db;
      sys;
      market;
      churn = Queue.create ();
      churn_rng = Gen.rng ~seed:plan.seed "churn";
      churn_seq = 0;
      retired = Hashtbl.create 64;
      retired_counts = Counters.zero;
    }
  in
  let rng = Gen.rng ~seed:plan.seed "rules" in
  let n = Report.size plan rules_per_kind in
  let stock () = Prng.choice rng market.stocks
  and index () = Prng.choice rng market.indexes in
  for _ = 1 to n do
    e.churn_seq <- e.churn_seq + 1;
    Queue.push
      (create_churn_rule e ~name:(Printf.sprintf "prim-%d" e.churn_seq) (stock ()))
      e.churn
  done;
  let conj_stocks =
    List.init n (fun k ->
        let s = stock () and i = index () in
        ignore
          (System.create_rule sys ~name:(Printf.sprintf "conj-%d" (k + 1))
             ~monitor:[ s; i ]
             ~event:(Expr.conj (price_event s) (value_event i))
             ~condition:"cheap-and-calm" ~action:"purchase" ());
        s)
  in
  for k = 1 to n do
    let s = stock () and i = index () in
    ignore
      (System.create_rule sys ~name:(Printf.sprintf "seq-%d" k) ~monitor:[ i; s ]
         ~event:(Expr.seq (value_event i) (price_event s))
         ~condition:"true" ~action:"note" ())
  done;
  for k = 1 to n do
    ignore
      (System.create_rule sys ~name:(Printf.sprintf "class-%d" k)
         ~monitor_classes:[ Market.stock_class ]
         ~event:(Expr.eom ~cls:Market.stock_class "get_price")
         ~condition:"true" ~action:"note" ())
  done;
  (* A conjunction fires only once both of its sides have been seen, and a
     conjunction's stock ticks about once per 125,000 events.  Left alone,
     the share of armed conjunctions (and with it the cost of an index tick)
     would keep rising through the run; one tick of every index and of every
     conjunction's stock arms them all, so the measured phase starts in the
     steady state of a long-running feed. *)
  let prime = Gen.rng ~seed:plan.seed "prime" in
  Array.iter
    (fun i ->
      ignore
        (Db.send db i "set_value"
           [ Value.Float (2000. +. Prng.float prime 2000.); Value.Float (Prng.float prime 10. -. 5.) ]))
    market.indexes;
  List.iter
    (fun s -> ignore (Db.send db s "set_price" [ Value.Float (20. +. Prng.float prime 160.) ]))
    conj_stocks;
  e

(* Retire the oldest churn rule and create a new instance-level one; [call]
   wraps each of the two calls. *)
let churn e ~call =
  let old = Queue.pop e.churn in
  let info = System.rule_info e.sys old in
  Hashtbl.replace e.retired info.name (info.fired, info.triggered);
  e.retired_counts <- Counters.add e.retired_counts (Counters.of_rule e.sys old);
  call "system.delete_rule" (fun () -> System.delete_rule e.sys old);
  e.churn_seq <- e.churn_seq + 1;
  let s = Prng.choice e.churn_rng e.market.stocks in
  call "system.create_rule" (fun () ->
      Queue.push
        (create_churn_rule e ~name:(Printf.sprintf "prim-%d" e.churn_seq) s)
        e.churn)

let next_event rng e =
  match Gen.batch rng e.market ~tickers:(Array.length e.market.stocks) ~size:1 with
  | [ ev ] -> ev
  | _ -> assert false

(* (name, fired, triggered) of every rule, deleted churn rules included. *)
let rule_counts e =
  let live =
    List.map
      (fun oid ->
        let r = System.rule_info e.sys oid in
        (r.Sentinel.Rule.name, r.fired, r.triggered))
      (System.rules e.sys)
  in
  let retired = Hashtbl.fold (fun n (f, t) acc -> (n, f, t) :: acc) e.retired [] in
  List.sort compare (live @ retired)

(* The paper's central-scan baseline: the same seed's first [n] sends, with
   the same churn, on a System that broadcasts every occurrence to every
   subscribed rule.  Per-rule firings must match. *)
let oracle_check plan ~n ~counts =
  let e = build plan ~routing:System.Broadcast in
  let rng = Gen.rng ~seed:plan.Report.seed "events" in
  for k = 1 to n do
    let o, m, args = next_event rng e in
    ignore (Db.send e.db o m args);
    if k mod churn_every = 0 then churn e ~call:(fun _ f -> f ())
  done;
  let expected = rule_counts e in
  let differ =
    List.length (List.filter (fun c -> not (List.mem c expected)) counts)
  in
  Report.check
    (Printf.sprintf "per-rule firings on the first %d sends = broadcast" n)
    (counts = expected)
    (Printf.sprintf "%d of %d rules differ" differ (List.length counts))

(* The traced run's peeled pass.  System.ingest batches, quiet single sends
   and reads run on the workload's own System; the object layer alone on a
   bare twin database.  rules_dense has no wire, pool or WAL on its path, so
   those layers are measured on a twin wire stack holding the same objects
   (and no rules): what they would cost for this input, which a change to
   them must not turn into a change of rules_dense's end-to-end numbers. *)
let peel (plan : Report.plan) e ~write ~window ~window_counts ~sends ~(side : Side.t) =
  let seed = plan.seed in
  let rng = Gen.rng ~seed "peel" in
  let tickers = Array.length e.market.stocks in
  let ingest = Samples.create () in
  for k = 1 to Report.size plan peel_batches do
    let batch = Gen.batch rng e.market ~tickers ~size:64 in
    let r, us = Spans.span ~trace:k "system.ingest" (fun _ -> System.ingest e.sys batch) in
    (match r with Ok _ -> () | Error ex -> raise ex);
    Samples.add ingest us
  done;
  let quiet = Samples.create () in
  for k = 1 to Report.size plan Peel.bare_events do
    let o, m, args = next_event rng e in
    let _, us = Spans.span ~trace:k "peel.send" (fun _ -> Db.send e.db o m args) in
    Samples.add quiet us
  done;
  let select = Samples.create () in
  let probes = ref 0 and rows = ref 0 in
  for k = 1 to Report.size plan peel_queries do
    let pred = Oodb.Query_parser.parse (Gen.symbol_lookup ~stocks:tickers rng).pred in
    let p0 = Oodb.Query.probes () in
    let found, us =
      Spans.span ~trace:k "query.select" (fun _ ->
          Oodb.Query.select e.db Market.stock_class pred)
    in
    probes := !probes + Oodb.Query.probes () - p0;
    rows := !rows + List.length found;
    Samples.add select us
  done;
  let twin_shape = { shape with stocks = tickers } in
  let bare = Peel.bare_send ~seed ~n:(Report.size plan Peel.bare_events) twin_shape in
  let dir = Filename.concat plan.out (Printf.sprintf "wal-%s-%d" name (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let twin = Wire.create ~dir ~seed ~watch_rule:false twin_shape in
  let batches =
    List.init (Report.size plan peel_batches) (fun _ ->
        Gen.batch rng twin.Wire.market ~tickers ~size:64)
  in
  let queries =
    List.init (Report.size plan peel_queries) (fun _ ->
        Gen.symbol_lookup ~stocks:(tickers / Wire.shards) rng)
  in
  let ladder = Wire.ladder twin ~batches ~queries in
  Wire.stop twin;
  Sys.rmdir dir;
  let p50 s = Samples.percentile s 50. in
  let own =
    [
      ("system.ingest_p50_us", p50 ingest);
      ("query.select_p50_us", p50 select);
      ("query.probes_per_row", Counters.ratio !probes !rows);
    ]
  in
  let flushes = List.length batches in
  ( List.map
      (fun (n, v) -> (n, Option.value ~default:v (List.assoc_opt n own)))
      (Wire.ladder_metrics ladder)
    @ Wire.seal_metrics twin
    @ Counters.wal_metrics ladder.wire_window ~events:ladder.frame_events ~flushes
    @ Counters.engine_metrics window_counts ~events:sends
    @ [
        ("pool.pushes_per_flush", Counters.ratio ladder.wire_pushes flushes);
        ("oodb.send_bare_p50_us", bare);
        ("gen.lag_p99_ms", Samples.percentile side.lag 99. /. 1000.);
      ]
    @ Peel.trace_metrics ~write ~window ~peeled_write:(p50 quiet),
    [ Wire.ladder_check ladder ] )

let run (plan : Report.plan) =
  let setup () = build plan ~routing:System.Indexed in
  let e, first_setup = Report.timed_setup setup in
  let stocks = Array.length e.market.stocks in
  let side_rng = Gen.rng ~seed:plan.seed "side" in
  let side =
    Side.create
      ~query:(fun () -> Gen.symbol_lookup ~stocks side_rng)
      ~reads_per_s:200. ~rule_ops_per_s:0.
      ~read:(fun q ->
        Oodb.Query.select e.db Market.stock_class (Oodb.Query_parser.parse q.pred)
        |> List.map (fun o -> Db.get e.db o q.attr))
      ~rule_op:ignore
  in
  let write = Lat.create () and rule_ops = Lat.create () in
  let failed = ref 0 and error = ref None in
  let note_failure ex =
    incr failed;
    if !error = None then error := Some (Printexc.to_string ex)
  in
  (* One rule operation is one churn step, a delete and a create: timed
     apart, the two calls take about 17 and 35 us, and the median of the
     mixture would jump between them from run to run. *)
  let replace_rule () =
    let traced = Spans.enabled () and trace = e.churn_seq + 1 in
    let t0 = Spans.now_us () in
    let ok =
      match
        Spans.span ~trace "system.replace_rule" (fun parent ->
            churn e ~call:(fun name f -> ignore (Spans.span ~parent ~trace name (fun _ -> f ()))))
      with
      | _ -> true
      | exception ex ->
        note_failure ex;
        false
    in
    let t1 = Spans.now_us () in
    Lat.add rule_ops ~start:t0 ~traced (if ok then t1 -. t0 else Float.infinity)
  in
  let c0 = Counters.of_system e.sys in
  let rng = Gen.rng ~seed:plan.seed "events" in
  let max_events = Report.max_events plan full_events in
  let check_at = Report.size plan oracle_events in
  let snapshot = ref None in
  let sends = ref 0 in
  let start = Spans.now_us () in
  let deadline = start +. (plan.seconds *. 1e6) in
  let window = if plan.smoke then 2_000. else 250_000. in
  let next_toggle = ref (start +. window) in
  while Spans.now_us () < deadline && !sends < max_events do
    let o, m, args = next_event rng e in
    let traced = Spans.enabled () in
    let t0 = Spans.now_us () in
    let ok =
      match Db.send e.db o m args with _ -> true | exception ex -> note_failure ex; false
    in
    let t1 = Spans.now_us () in
    incr sends;
    Lat.add write ~start:t0 ~traced (if ok then t1 -. t0 else Float.infinity);
    if traced then Spans.add ~trace:!sends "system.send" t0 t1;
    if !sends mod churn_every = 0 then replace_rule ();
    if !sends = check_at then snapshot := Some (!sends, rule_counts e);
    Side.run_due side;
    if plan.traced && t1 >= !next_toggle then begin
      Spans.set_enabled (not traced);
      next_toggle := !next_toggle +. window
    end
  done;
  Spans.set_enabled false;
  let stop = Spans.now_us () in
  let peak_rss = Report.peak_rss_mb () in
  let window_counts =
    Counters.add (Counters.sub (Counters.of_system e.sys) c0) e.retired_counts
  in
  let check_n, counts =
    match !snapshot with Some s -> s | None -> (!sends, rule_counts e)
  in
  let checks =
    [
      oracle_check plan ~n:check_n ~counts;
      Report.check "every row read satisfies its predicate" (side.Side.bad_rows = 0)
        (Printf.sprintf "%d of %d rows fail their read's test" side.Side.bad_rows
           side.Side.rows);
    ]
    @ List.filter_map
        (fun (what, e) -> Option.map (fun e -> Report.check what false e) e)
        [ ("side channel", side.Side.first_error); ("sends and rule operations", !error) ]
  in
  let window = Window.make ~start ~stop ~quiet:true write in
  let e2e ~setup_runs window =
    Report.end_to_end_values ~setup_runs ~window
      ~events_per_write:1 ~write ~reads:side.Side.reads ~rule_ops ~peak_rss
  in
  let layers, peel_checks =
    if not plan.traced then ([], [])
    else begin
      Spans.set_enabled true;
      let r =
        peel plan e ~write ~window ~window_counts ~sends:!sends ~side
      in
      Spans.set_enabled false;
      r
    end
  in
  let setup_runs = Report.more_setups plan ~first:first_setup ~setup ~teardown:ignore in
  {
    Report.workload = name;
    metrics = e2e ~setup_runs window @ layers;
    window;
    all_windows = e2e ~setup_runs (Window.make ~start ~stop ~quiet:false write);
    attempted = !sends + Lat.count rule_ops + side.Side.attempted;
    failed = !failed + side.Side.failed;
    checks = checks @ peel_checks;
    counts =
      [
        ("sends", !sends);
        ("rule_ops", Lat.count rule_ops);
        ("reads", Lat.count side.Side.reads);
        ("rows_read", side.Side.rows);
        ("oracle_sends", check_n);
        ("stocks", Array.length e.market.stocks);
        ("rules", List.length (System.rules e.sys));
      ];
    setup_runs;
    latencies = Report.kept_latencies ~window ~write ~reads:side.Side.reads ~rule_ops;
    self_times = [];
  }

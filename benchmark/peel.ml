(* Measurements every workload's traced run shares. *)

let bare_events = 5_000

(* Median µs of one Db.send of the workload's tick stream on a database with
   nothing above it: the object layer's own cost for this input. *)
let bare_send ~seed ~n (shape : Gen.shape) =
  let db, market = Gen.bare_db ~seed shape in
  let rng = Gen.rng ~seed "peel-bare" in
  let tickers = Array.length market.Workloads.Stock_market.stocks in
  let s = Samples.create () in
  for k = 1 to n do
    List.iter
      (fun (o, m, args) ->
        let _, us =
          Spans.span ~trace:k "oodb.send" (fun _ -> Oodb.Db.send db o m args)
        in
        Samples.add s us)
      (Gen.batch rng market ~tickers ~size:1)
  done;
  Samples.percentile s 50.

(* The tracer's cost, from the traced and untraced halves of the write
   latencies, and the part of the untraced median write that the peeled
   layers' self times do not account for. *)
let trace_metrics ~write ~window ~peeled_write =
  let p50 traced =
    Samples.percentile (Lat.select write ~keep:(Window.kept window) ~traced) 50.
  in
  let traced = p50 true and plain = p50 false in
  [
    ("trace.overhead_pct", 100. *. (traced -. plain) /. plain);
    ("reconcile.residual_pct", 100. *. (plain -. peeled_write) /. plain);
  ]

(* Seeded inputs.  Every input the benchmark feeds the program comes from a
   [Workloads.Prng] stream derived from --seed and a stream name, so the same
   seed gives the same inputs and independent streams (one per client, the
   side channel, the peeled pass) do not shift when another stream draws more
   or fewer values.  Batches are generated one at a time, just before they are
   sent, so the program's memory is not padded with the benchmark's input. *)

module Prng = Workloads.Prng
module Market = Workloads.Stock_market
module Value = Oodb.Value

let rng ~seed stream = Prng.create (Hashtbl.hash (seed, stream))

type shape = {
  stocks : int;
  infos : int;  (** financial_info objects (market indexes) *)
  portfolios : int;
  index : (string * [ `Hash | `Ordered ]) option;  (** on a stock attribute *)
}

(* Create [shape]'s objects in one transaction, then the index. *)
let populate db rng shape =
  let market =
    match
      Oodb.Transaction.atomically db (fun () ->
          Market.populate db rng ~stocks:shape.stocks ~indexes:shape.infos
            ~portfolios:shape.portfolios)
    with
    | Ok m -> m
    | Error e -> raise e
  in
  Option.iter
    (fun (attr, kind) ->
      Oodb.Db.create_index db ~kind ~cls:Market.stock_class ~attr ())
    shape.index;
  market

(* A database holding [shape] and nothing above it: no rule system, pool,
   WAL or server.  The peeled pass replays a workload's events on it to time
   the object layer alone. *)
let bare_db ~seed shape =
  let db = Oodb.Db.create () in
  Market.install db;
  (db, populate db (rng ~seed "populate") shape)

(* One batch of [size] market ticks over the first [tickers] stocks. *)
let batch rng market ~tickers ~size =
  match Market.tick_batches rng market ~tickers ~rate:size ~batches:1 with
  | [ b ] -> b
  | _ -> assert false

(* A read of stocks: the predicate the program is asked, and the test every
   returned row's [attr] must pass. *)
type query = { pred : string; attr : string; ok : Value.t -> bool }

(* Stocks priced in [x, x + 0.5).  The bounds are parsed back from the
   predicate text, so the row test checks exactly what the program was
   asked. *)
let price_range rng =
  let x = 20. +. Prng.float rng 159.5 in
  let lo_s = Printf.sprintf "%.3f" x and hi_s = Printf.sprintf "%.3f" (x +. 0.5) in
  let lo = float_of_string lo_s and hi = float_of_string hi_s in
  {
    pred = Printf.sprintf "price >= %s and price < %s" lo_s hi_s;
    attr = "price";
    ok = (fun v -> match v with Value.Float p -> p >= lo && p < hi | _ -> false);
  }

(* One stock by symbol, among the first [stocks] populated. *)
let symbol_lookup ~stocks rng =
  let sym = Printf.sprintf "STK%d" (Prng.int rng stocks) in
  {
    pred = Printf.sprintf "symbol = '%s'" sym;
    attr = "symbol";
    ok = (fun v -> v = Value.Str sym);
  }

open Helpers
module Btree = Oodb.Btree

let vi n = Value.Int n
let o n = Oid.of_int n

let check_ok t label =
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invariant broken: %s" label msg

let test_empty () =
  let t = Btree.create () in
  check_ok t "empty";
  Alcotest.(check int) "cardinal" 0 (Btree.cardinal t);
  Alcotest.(check int) "keys" 0 (Btree.key_count t);
  Alcotest.(check int) "height" 1 (Btree.height t);
  Alcotest.(check (list int)) "find" [] (List.map Oid.to_int (Btree.find t (vi 1)));
  Alcotest.(check bool) "min" true (Btree.min_key t = None);
  Alcotest.(check bool) "max" true (Btree.max_key t = None);
  Alcotest.(check int) "range" 0 (List.length (Btree.range t ()))

let test_basic_insert_find () =
  let t = Btree.create ~order:4 () in
  List.iter (fun k -> Btree.insert t (vi k) (o k)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6 ];
  check_ok t "after inserts";
  Alcotest.(check int) "cardinal" 9 (Btree.cardinal t);
  Alcotest.(check bool) "deep tree" true (Btree.height t > 1);
  List.iter
    (fun k ->
      Alcotest.(check (list int))
        (Printf.sprintf "find %d" k)
        [ k ]
        (List.map Oid.to_int (Btree.find t (vi k))))
    [ 1; 5; 9 ];
  Alcotest.(check bool) "min" true (Btree.min_key t = Some (vi 1));
  Alcotest.(check bool) "max" true (Btree.max_key t = Some (vi 9))

let test_multivalue () =
  let t = Btree.create () in
  Btree.insert t (vi 1) (o 10);
  Btree.insert t (vi 1) (o 11);
  Btree.insert t (vi 1) (o 10); (* idempotent *)
  Alcotest.(check (list int)) "two oids" [ 10; 11 ]
    (List.map Oid.to_int (Btree.find t (vi 1)));
  Alcotest.(check int) "cardinal counts pairs" 2 (Btree.cardinal t);
  Alcotest.(check int) "one key" 1 (Btree.key_count t);
  Btree.remove t (vi 1) (o 10);
  Alcotest.(check (list int)) "one left" [ 11 ]
    (List.map Oid.to_int (Btree.find t (vi 1)));
  Btree.remove t (vi 1) (o 11);
  Alcotest.(check (list int)) "key gone" [] (List.map Oid.to_int (Btree.find t (vi 1)));
  Alcotest.(check int) "no keys" 0 (Btree.key_count t)

let test_range () =
  let t = Btree.create ~order:4 () in
  List.iter (fun k -> Btree.insert t (vi k) (o k)) (List.init 20 (fun i -> i * 2));
  let keys r = List.map (fun (k, _) -> Value.to_int k) r in
  Alcotest.(check (list int)) "closed range" [ 10; 12; 14 ]
    (keys (Btree.range t ~lo:(vi 10, true) ~hi:(vi 14, true) ()));
  Alcotest.(check (list int)) "open lo" [ 12; 14 ]
    (keys (Btree.range t ~lo:(vi 10, false) ~hi:(vi 14, true) ()));
  Alcotest.(check (list int)) "open hi" [ 10; 12 ]
    (keys (Btree.range t ~lo:(vi 10, true) ~hi:(vi 14, false) ()));
  Alcotest.(check (list int)) "unbounded above" [ 34; 36; 38 ]
    (keys (Btree.range t ~lo:(vi 34, true) ()));
  Alcotest.(check (list int)) "unbounded below" [ 0; 2 ]
    (keys (Btree.range t ~hi:(vi 2, true) ()));
  Alcotest.(check int) "full scan" 20 (List.length (Btree.range t ()));
  Alcotest.(check (list int)) "between keys" [ 12 ]
    (keys (Btree.range t ~lo:(vi 11, true) ~hi:(vi 13, true) ()));
  Alcotest.(check int) "empty range" 0
    (List.length (Btree.range t ~lo:(vi 100, true) ()))

let test_delete_rebalances () =
  let t = Btree.create ~order:4 () in
  let n = 200 in
  for k = 1 to n do
    Btree.insert t (vi k) (o k)
  done;
  check_ok t "built";
  let deep = Btree.height t in
  Alcotest.(check bool) "tall" true (deep >= 3);
  (* delete odd keys, checking invariants as we go *)
  for k = 1 to n do
    if k mod 2 = 1 then begin
      Btree.remove t (vi k) (o k);
      if k mod 37 = 0 then check_ok t (Printf.sprintf "during deletes (%d)" k)
    end
  done;
  check_ok t "after odd deletes";
  Alcotest.(check int) "half left" (n / 2) (Btree.cardinal t);
  (* delete everything *)
  for k = 1 to n do
    Btree.remove t (vi k) (o k)
  done;
  check_ok t "empty again";
  Alcotest.(check int) "all gone" 0 (Btree.cardinal t);
  Alcotest.(check int) "height collapsed" 1 (Btree.height t)

let test_unknown_removals_ignored () =
  let t = Btree.create () in
  Btree.insert t (vi 1) (o 1);
  Btree.remove t (vi 2) (o 1); (* absent key *)
  Btree.remove t (vi 1) (o 99); (* absent oid *)
  Alcotest.(check int) "unchanged" 1 (Btree.cardinal t);
  check_ok t "still valid"

let test_mixed_value_types () =
  let t = Btree.create ~order:4 () in
  let values =
    [ Value.Null; Value.Bool false; Value.Int 3; Value.Float 3.5;
      Value.Str "abc"; Value.Obj (o 1); Value.List [ Value.Int 1 ] ]
  in
  List.iteri (fun i v -> Btree.insert t v (o (100 + i))) values;
  check_ok t "mixed tags";
  Alcotest.(check int) "all present" (List.length values) (Btree.key_count t);
  (* numeric cross-tag ordering: Int 3 < Float 3.5 *)
  let keys =
    Btree.range t ~lo:(Value.Int 3, true) ~hi:(Value.Float 3.5, true) ()
    |> List.map fst
  in
  Alcotest.(check int) "numeric range spans tags" 2 (List.length keys)

(* --- properties -------------------------------------------------------------- *)

(* Random insert/remove interleavings keep invariants and agree with a
   model (sorted association list). *)
let ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 300)
      (pair bool (pair (int_bound 40) (int_bound 5))))

let model_of_ops ops =
  List.fold_left
    (fun acc (ins, (k, id)) ->
      let existing = try List.assoc k acc with Not_found -> [] in
      let acc' = List.remove_assoc k acc in
      if ins then
        let ids = if List.mem id existing then existing else id :: existing in
        (k, ids) :: acc'
      else
        let ids = List.filter (( <> ) id) existing in
        if ids = [] then acc' else (k, ids) :: acc')
    [] ops

let tree_of_ops order ops =
  let t = Btree.create ~order () in
  List.iter
    (fun (ins, (k, id)) ->
      if ins then Btree.insert t (vi k) (o id) else Btree.remove t (vi k) (o id))
    ops;
  t

let tree_contents t =
  let out = ref [] in
  Btree.iter t (fun k oids -> out := (Value.to_int k, List.map Oid.to_int oids) :: !out);
  List.rev !out

let prop_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"btree agrees with model" ~count:150
       (QCheck2.Gen.pair (QCheck2.Gen.oneofl [ 4; 5; 8 ]) ops_gen)
       (fun (order, ops) ->
         let t = tree_of_ops order ops in
         let model =
           model_of_ops ops
           |> List.map (fun (k, ids) -> (k, List.sort compare ids))
           |> List.sort compare
         in
         tree_contents t = model))

let prop_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"btree invariants hold under churn" ~count:150
       (QCheck2.Gen.pair (QCheck2.Gen.oneofl [ 4; 5; 8 ]) ops_gen)
       (fun (order, ops) ->
         Btree.check_invariants (tree_of_ops order ops) = Ok ()))

let prop_range_is_filter =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"range = filtered full scan" ~count:150
       QCheck2.Gen.(
         triple ops_gen (int_bound 40) (int_bound 40))
       (fun (ops, a, b) ->
         let lo = min a b and hi = max a b in
         let t = tree_of_ops 4 ops in
         let ranged =
           Btree.range t ~lo:(vi lo, true) ~hi:(vi hi, true) ()
           |> List.map (fun (k, _) -> Value.to_int k)
         in
         let scanned =
           tree_contents t |> List.map fst
           |> List.filter (fun k -> k >= lo && k <= hi)
         in
         ranged = scanned))

(* --- bulk loading ---------------------------------------------------------------- *)

(* [n] pairs over about [n / dup] distinct keys, OIDs distinct. *)
let bulk_pairs ~dup n = Array.init n (fun i -> (vi ((i * 7919) mod max 1 (n / dup)), o i))

let test_bulk_invariants () =
  let sizes = List.init 201 Fun.id @ List.init 25 (fun k -> 201 + (k * 79)) @ [ 2_000 ] in
  List.iter
    (fun order ->
      List.iter
        (fun n ->
          List.iter
            (fun dup ->
              let pairs = bulk_pairs ~dup n in
              let t = Btree.of_pairs ~order (Array.copy pairs) in
              let label = Printf.sprintf "order %d, %d pairs, dup %d" order n dup in
              check_ok t label;
              Alcotest.(check int) (label ^ ": cardinal") n (Btree.cardinal t);
              let inc = Btree.create ~order () in
              Array.iter (fun (k, oid) -> Btree.insert inc k oid) pairs;
              if tree_contents t <> tree_contents inc then
                Alcotest.failf "%s: contents differ from inserting the pairs" label)
            [ 1; 3 ])
        sizes)
    [ 4; 5; 16 ]

(* A bulk-loaded tree stays a B+-tree under later inserts and removals. *)
let prop_bulk_then_churn =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bulk load then churn keeps invariants and the model"
       ~count:150
       QCheck2.Gen.(triple (oneofl [ 4; 5; 16 ]) ops_gen ops_gen)
       (fun (order, load, churn) ->
         let inserts = List.filter fst load in
         let t =
           Btree.of_pairs ~order
             (Array.of_list (List.map (fun (_, (k, id)) -> (vi k, o id)) inserts))
         in
         List.iter
           (fun (ins, (k, id)) ->
             if ins then Btree.insert t (vi k) (o id) else Btree.remove t (vi k) (o id))
           churn;
         let model =
           model_of_ops (inserts @ churn)
           |> List.map (fun (k, ids) -> (k, List.sort compare ids))
           |> List.sort compare
         in
         Btree.check_invariants t = Ok () && tree_contents t = model))

(* Keys equal under Value.compare share an entry keyed by the value paired
   with the lowest OID, wherever that pair sits in the input. *)
let test_bulk_equal_keys () =
  let t =
    Btree.of_pairs ~order:4
      [| (Value.Float 1., o 9); (vi 2, o 4); (vi 1, o 3); (Value.Float 2., o 1); (vi 1, o 3) |]
  in
  check_ok t "equal keys";
  let keys = ref [] in
  Btree.iter t (fun k oids -> keys := (k, List.map Oid.to_int oids) :: !keys);
  Alcotest.(check bool) "lowest OID's value keys each run" true
    (List.rev !keys = [ (vi 1, [ 3; 9 ]); (Value.Float 2., [ 1; 4 ]) ]);
  Alcotest.(check int) "duplicate pair counted once" 4 (Btree.cardinal t)

let suite =
  [
    test "empty tree" test_empty;
    test "insert and find" test_basic_insert_find;
    test "multi-valued keys" test_multivalue;
    test "range scans" test_range;
    test "delete rebalances" test_delete_rebalances;
    test "unknown removals ignored" test_unknown_removals_ignored;
    test "mixed value types" test_mixed_value_types;
    prop_model;
    prop_invariants;
    prop_range_is_filter;
    test "bulk load: invariants at 0-2000 pairs, orders 4/5/16" test_bulk_invariants;
    test "bulk load: equal keys keep the lowest OID's value" test_bulk_equal_keys;
    prop_bulk_then_churn;
  ]

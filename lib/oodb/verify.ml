open Types

(* Every walk of an OID table goes in ascending OID, so the problems come
   out in an order that does not depend on the table's hash. *)
let iter_sorted f tbl =
  Array.iter (fun oid -> f oid (Oid.Table.find tbl oid)) (Oid.sorted_keys tbl)

let check ?(quiescent = false) (db : Db.t) =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in

  if quiescent && Transaction.in_progress db then
    complain "transaction still in progress";

  (* objects vs classes and extents *)
  iter_sorted
    (fun oid (o : obj) ->
      if not o.alive then complain "%s: dead object in table" (Oid.to_string oid)
      else if not (Db.has_class db o.cls) then
        complain "%s: unregistered class %s" (Oid.to_string oid) o.cls
      else begin
        (* extent membership *)
        (match Hashtbl.find_opt db.extents o.cls with
        | Some extent when Oid.Table.mem extent oid -> ()
        | _ -> complain "%s: missing from extent of %s" (Oid.to_string oid) o.cls);
        (* the denormalized info pointer must be the registered one *)
        (match Hashtbl.find_opt db.class_info o.cls with
        | Some ci when ci != o.info ->
          complain "%s: stale class_info cache" (Oid.to_string oid)
        | _ -> ());
        (* slot store must match the layout; checked before the attribute
           walk, which addresses slots through the layout *)
        let store_ok =
          let n = Array.length o.info.ri_layout.ly_names in
          if Array.length o.store = n then true
          else begin
            complain "%s: slot array has %d slots but layout has %d"
              (Oid.to_string oid) (Array.length o.store) n;
            false
          end
        in
        if store_ok then begin
          (* attribute set = declared set *)
          let spec = Schema.all_attrs db o.cls in
          List.iter
            (fun (attr, _) ->
              match Heap.obj_get o attr with
              | None ->
                complain "%s: declared attribute %s missing" (Oid.to_string oid)
                  attr
              | Some _ -> ())
            spec;
          Heap.iter_attrs
            (fun attr _ ->
              if not (List.mem_assoc attr spec) then
                complain "%s: undeclared attribute %s present"
                  (Oid.to_string oid) attr)
            o
        end
      end)
    db.objects;

  (* extents point at live objects of the right class *)
  Hashtbl.iter
    (fun cls extent ->
      iter_sorted
        (fun oid () ->
          match Oid.Table.find_opt db.objects oid with
          | None ->
            complain "extent %s: dangling entry %s" cls (Oid.to_string oid)
          | Some o when o.cls <> cls ->
            complain "extent %s: %s actually of class %s" cls (Oid.to_string oid)
              o.cls
          | Some _ -> ())
        extent)
    db.extents;

  (* the subscription reverse index is exactly the consumer lists, reversed *)
  let listed = Hashtbl.create 64 in
  iter_sorted
    (fun oid (o : obj) ->
      List.iter (fun c -> Hashtbl.replace listed (c, `Obj oid) ()) o.consumers)
    db.objects;
  Hashtbl.iter
    (fun cls cs -> List.iter (fun c -> Hashtbl.replace listed (c, `Cls cls) ()) cs)
    db.class_consumers;
  let indexed = Hashtbl.create 64 in
  iter_sorted
    (fun c sb ->
      iter_sorted (fun oid () -> Hashtbl.replace indexed (c, `Obj oid) ()) sb.sb_objects;
      List.iter (fun cls -> Hashtbl.replace indexed (c, `Cls cls) ()) sb.sb_classes)
    db.subscriptions;
  let describe (c, target) =
    Printf.sprintf "%s on %s" (Oid.to_string c)
      (match target with `Obj oid -> Oid.to_string oid | `Cls cls -> "class " ^ cls)
  in
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem indexed k) then
        complain "subscription %s missing from the reverse index" (describe k))
    listed;
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem listed k) then
        complain "reverse index holds stale subscription %s" (describe k))
    indexed;

  (* indexes agree with the data *)
  Hashtbl.iter
    (fun (cls, attr) ix ->
      (match ix.ix_backing with
      | Ix_hash entries ->
        Hashtbl.iter
          (fun v p ->
            if not (Postings.well_formed p) then
              complain "index %s.%s: key %s holds a set of < 2 OIDs" cls attr
                (Value.to_string v))
          entries
      | Ix_ordered tree -> (
        match Btree.check_invariants tree with
        | Ok () -> ()
        | Error msg -> complain "index %s.%s: btree invariant: %s" cls attr msg));
      let indexed_pairs = Db.index_pairs db ~cls ~attr in
      (* every index entry matches the object *)
      List.iter
        (fun (v, oid) ->
          if not (Db.exists db oid) then
            complain "index %s.%s: entry for missing object %s" cls attr
              (Oid.to_string oid)
          else
            match Db.get_opt db oid attr with
            | Some actual when Value.equal actual v -> ()
            | Some actual ->
              complain "index %s.%s: %s indexed under %s but holds %s" cls attr
                (Oid.to_string oid) (Value.to_string v) (Value.to_string actual)
            | None ->
              complain "index %s.%s: %s indexed but attribute absent" cls attr
                (Oid.to_string oid))
        indexed_pairs;
      (* every matching object is indexed *)
      let indexed_oids = Oid.Table.create 64 in
      List.iter (fun (_, oid) -> Oid.Table.replace indexed_oids oid ()) indexed_pairs;
      List.iter
        (fun oid ->
          match Db.get_opt db oid attr with
          | Some _ when not (Oid.Table.mem indexed_oids oid) ->
            complain "index %s.%s: live object %s not indexed" cls attr
              (Oid.to_string oid)
          | _ -> ())
        (Db.extent db ~deep:true cls))
    db.indexes;

  match List.rev !problems with [] -> Ok () | ps -> Error ps

let check_exn ?quiescent db =
  match check ?quiescent db with
  | Ok () -> ()
  | Error (p :: _) -> raise (Errors.Transaction_error ("integrity: " ^ p))
  | Error [] -> ()

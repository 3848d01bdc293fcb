open Types

let ddl_guard db what =
  if Transaction.in_progress db then
    raise
      (Errors.Transaction_error
         (Printf.sprintf "%s is DDL and cannot run inside a transaction" what))

let journal db e = match db.on_journal with Some f -> f e | None -> ()

(* Re-derive the flattened class_info caches for [cls] and everything below
   it, then migrate every stored instance onto its class's fresh info
   (rewriting slot arrays when the attribute set changed — Heap.migrate_obj
   carries values across by symbol).  Parents first, so each recomputation
   sees fresh parent info and the subclass prefix invariant holds while we
   rebuild. *)
let refresh_info db cls =
  let affected =
    Hashtbl.fold
      (fun name info acc ->
        if List.exists (String.equal cls) info.ri_ancestry then
          (name, List.length info.ri_ancestry) :: acc
        else acc)
      db.class_info []
    |> List.sort (fun (_, d1) (_, d2) -> Int.compare d1 d2)
  in
  List.iter
    (fun (name, _) ->
      let ninfo = Db.compute_info db (Schema.find db name) in
      Hashtbl.replace db.class_info name ninfo;
      match Hashtbl.find_opt db.extents name with
      | None -> ()
      | Some ext ->
        (* each object is rewritten on its own, logging and raising
           nothing, so the walk's order cannot be seen *)
        Oid.Table.iter
          (fun oid () -> Heap.migrate_obj (Heap.find_obj_any db oid) ninfo)
          ext)
    affected;
  Db.bump_schema_gen db

let declares_attr (c : class_def) attr = List.mem_assoc attr c.attr_spec

let subclasses_declaring db cls attr =
  Hashtbl.fold
    (fun name info acc ->
      if
        List.exists (String.equal cls) info.ri_ancestry
        && declares_attr (Schema.find db name) attr
      then name :: acc
      else acc)
    db.class_info []

let add_attribute db ~cls ~attr ~default =
  ddl_guard db "add_attribute";
  let c = Schema.find db cls in
  if List.mem_assoc attr (Schema.all_attrs db cls) then
    Errors.type_error "class %s already has attribute %s (possibly inherited)"
      cls attr;
  (match subclasses_declaring db cls attr with
  | [] -> ()
  | sub :: _ ->
    Errors.type_error "subclass %s already declares attribute %s" sub attr);
  c.attr_spec <- c.attr_spec @ [ (attr, default) ];
  (* new layouts first (the fresh slot starts absent), then backfill every
     stored instance of the class and its subclasses *)
  refresh_info db cls;
  let instances = Db.extent db ~deep:true cls in
  List.iter
    (fun oid ->
      let o = Heap.find_obj db oid in
      match Heap.obj_get o attr with
      | None -> ignore (Heap.raw_set_attr db o attr (Some default))
      | Some _ -> ())
    instances;
  List.length instances

let remove_attribute db ~cls ~attr =
  ddl_guard db "remove_attribute";
  let c = Schema.find db cls in
  if not (declares_attr c attr) then
    Errors.type_error "class %s does not itself declare attribute %s" cls attr;
  (* strip stored values while the old layouts still carry the slot, so
     covering indexes are maintained; then shrink the layouts *)
  let instances = Db.extent db ~deep:true cls in
  List.iter
    (fun oid ->
      let o = Heap.find_obj db oid in
      match Heap.obj_get o attr with
      | Some _ -> ignore (Heap.raw_set_attr db o attr None)
      | None -> ())
    instances;
  c.attr_spec <- List.remove_assoc attr c.attr_spec;
  refresh_info db cls;
  List.length instances

let rename_attribute db ~cls ~attr ~into =
  ddl_guard db "rename_attribute";
  let c = Schema.find db cls in
  if not (declares_attr c attr) then
    Errors.type_error "class %s does not itself declare attribute %s" cls attr;
  if String.equal attr into then
    Errors.type_error "rename_attribute: %s already is the name" attr;
  if List.mem_assoc into (Schema.all_attrs db cls) then
    Errors.type_error "class %s already has attribute %s (possibly inherited)"
      cls into;
  (match subclasses_declaring db cls into with
  | [] -> ()
  | sub :: _ ->
    Errors.type_error "subclass %s already declares attribute %s" sub into);
  (* Pull values (and their index entries) out under the old layout... *)
  let instances = Db.extent db ~deep:true cls in
  let carried =
    List.filter_map
      (fun oid ->
        let o = Heap.find_obj db oid in
        match Heap.raw_set_attr db o attr None with
        | Some v -> Some (oid, v)
        | None -> None)
      instances
  in
  (* ...re-key any index on the attribute (instances they covered are all in
     [instances], so the backings are empty of live entries by now)... *)
  List.iter
    (fun c2 ->
      match Hashtbl.find_opt db.indexes (c2, attr) with
      | None -> ()
      | Some ix ->
        Hashtbl.remove db.indexes (c2, attr);
        ix.ix_attr <- into;
        Hashtbl.replace db.indexes (c2, into) ix;
        journal db (J_mutation (M_drop_index (c2, attr)));
        journal db
          (J_mutation
             (M_create_index
                (c2, into, match ix.ix_backing with Ix_ordered _ -> true | Ix_hash _ -> false))))
    (Db.subclasses db cls);
  db.index_gen <- db.index_gen + 1;
  (* ...rename in the spec at its declared position (slot order is part of
     the layout contract, so a rename must not move the slot)... *)
  c.attr_spec <-
    List.map (fun (n, d) -> if String.equal n attr then (into, d) else (n, d)) c.attr_spec;
  refresh_info db cls;
  (* ...and put the values back under the new name (re-indexing them). *)
  List.iter
    (fun (oid, v) ->
      ignore (Heap.raw_set_attr db (Heap.find_obj db oid) into (Some v)))
    carried;
  List.length instances

let add_method db ~cls mname impl =
  ddl_guard db "add_method";
  let c = Schema.find db cls in
  if Hashtbl.mem c.methods mname then
    Errors.type_error "class %s already defines method %s" cls mname;
  Hashtbl.replace c.methods mname { mname; impl };
  (* dispatch tables are precomputed per class *)
  refresh_info db cls

let add_event_generator db ~cls ~meth when_ =
  ddl_guard db "add_event_generator";
  let c = Schema.find db cls in
  (* the method must be understood by instances of this class *)
  let (_ : method_def) = Schema.lookup_method db cls meth in
  let entry =
    match when_ with
    | Schema.On_begin -> { on_begin = true; on_end = false }
    | Schema.On_end -> { on_begin = false; on_end = true }
    | Schema.On_both -> { on_begin = true; on_end = true }
  in
  Hashtbl.replace c.interface meth entry;
  if not c.reactive then c.reactive <- true;
  refresh_info db cls

let remove_event_generator db ~cls ~meth =
  ddl_guard db "remove_event_generator";
  let c = Schema.find db cls in
  if Hashtbl.mem c.interface meth then begin
    Hashtbl.remove c.interface meth;
    refresh_info db cls
  end

(* Raw heap mutations shared by Db (the logging, event-raising front door)
   and Transaction (undo replay).  Nothing here logs undo records or raises
   events; callers are responsible for that.

   An object's attributes live in a flat value array addressed through its
   class's slot layout (Types.layout); [absent] marks a slot that holds
   nothing. *)

open Types

let find_obj db oid =
  match Oid.Table.find_opt db.objects oid with
  | None -> raise (Errors.No_such_object oid)
  | Some o when not o.alive -> raise (Errors.Dead_object oid)
  | Some o -> o

let find_obj_any db oid =
  (* Used by undo replay, which may legitimately touch dead objects. *)
  match Oid.Table.find_opt db.objects oid with
  | None -> raise (Errors.No_such_object oid)
  | Some o -> o

let class_info db cls =
  match Hashtbl.find_opt db.class_info cls with
  | Some i -> i
  | None -> raise (Errors.No_such_class cls)

let extent_table db cls =
  match Hashtbl.find_opt db.extents cls with
  | Some t -> t
  | None ->
    let t = Oid.Table.create 16 in
    Hashtbl.replace db.extents cls t;
    t

(* All indexes that cover attribute [attr] of an instance whose runtime class
   is [cls]: an index declared on (C, a) covers instances of C and of every
   subclass of C. *)
let covering_indexes db cls attr =
  List.filter_map
    (fun c -> Hashtbl.find_opt db.indexes (c, attr))
    (Schema.ancestry db cls)

(* Covering lookup cached per layout slot, refreshed when the database's
   index generation moved. *)
let refresh_covering db (ly : layout) =
  Array.iteri
    (fun j name -> ly.ly_covering.(j) <- covering_indexes db ly.ly_class name)
    ly.ly_names;
  ly.ly_covered <- Array.exists (fun ixs -> ixs <> []) ly.ly_covering;
  ly.ly_ix_stamp <- db.index_gen

let covering_of_slot db (ly : layout) i =
  if ly.ly_ix_stamp <> db.index_gen then refresh_covering db ly;
  Array.unsafe_get ly.ly_covering i

let index_remove ix v oid =
  match ix.ix_backing with
  | Ix_hash entries -> (
    match Hashtbl.find_opt entries v with
    | None -> ()
    | Some p -> (
      match Postings.remove p oid with
      | None -> Hashtbl.remove entries v
      | Some p' -> if p' != p then Hashtbl.replace entries v p'))
  | Ix_ordered tree -> Btree.remove tree v oid

let index_add ix v oid =
  match ix.ix_backing with
  | Ix_hash entries -> (
    match Hashtbl.find_opt entries v with
    | None -> Hashtbl.add entries v (Postings.One oid)
    | Some p ->
      let p' = Postings.add p oid in
      if p' != p then Hashtbl.replace entries v p')
  | Ix_ordered tree -> Btree.insert tree v oid

(* --- store access -------------------------------------------------------- *)

let layout_of (o : obj) = o.info.ri_layout

(* Slot index of [name] in the object's layout, or -1. *)
let slot_by_name (o : obj) name =
  match Hashtbl.find_opt (layout_of o).ly_by_name name with
  | Some i -> i
  | None -> -1

let obj_get (o : obj) name =
  match Hashtbl.find_opt (layout_of o).ly_by_name name with
  | None -> None
  | Some i ->
    let v = Array.unsafe_get o.store i in
    if v == absent then None else Some v

let iter_attrs f (o : obj) =
  let ly = layout_of o in
  Array.iteri (fun i v -> if v != absent then f ly.ly_names.(i) v) o.store

let sorted_attrs (o : obj) =
  let acc = ref [] in
  iter_attrs (fun k v -> acc := (k, v) :: !acc) o;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Write without index maintenance or undo logging, for snapshot loading:
   an attribute the current layout does not declare is dropped. *)
let store_put_loose (o : obj) name v =
  let i = slot_by_name o name in
  if i >= 0 then o.store.(i) <- v

(* --- construction -------------------------------------------------------- *)

(* A fresh store for an instance of [info]'s class: [`Defaults] seeds every
   declared attribute with its default (object creation), [`Empty] starts
   all-absent (snapshot loading, which replays the saved attributes on
   top). *)
let fresh_store (info : class_info) seed =
  let ly = info.ri_layout in
  match seed with
  | `Defaults -> Array.copy ly.ly_defaults
  | `Empty -> Array.make (Array.length ly.ly_defaults) absent

let make_obj ~id ~cls ~info ~store ~consumers =
  { id; cls; info; store; consumers; alive = true; dirty_gen = 0 }

(* --- mutation ------------------------------------------------------------ *)

(* Dirty tracking for incremental checkpoints: the generation stamp keeps
   the steady-state cost of re-touching an already-dirty object to one
   load+compare; the hashtable write happens once per object per epoch.
   The set starts at the first checkpoint base: until one is saved, loaded
   or applied ([ckpt_gen] still 1), every live object is dirty relative to
   nothing, so [Persist.write_delta] walks them all and the set stays
   empty.  [dirty_dead] is kept from the start. *)
let no_base db = db.ckpt_gen = 1

let mark_dirty db (o : obj) =
  if o.dirty_gen <> db.ckpt_gen then begin
    o.dirty_gen <- db.ckpt_gen;
    if not (no_base db) then Oid.Table.replace db.dirty o.id ()
  end

let clear_dirty db =
  Oid.Table.reset db.dirty;
  Oid.Table.reset db.dirty_dead;
  db.ckpt_gen <- db.ckpt_gen + 1

(* Set or remove ([v = None]) the attribute at slot [i], keeping covering
   indexes in sync.  Returns the previous binding. *)
let raw_set_slot db (o : obj) i v =
  mark_dirty db o;
  let slots = o.store in
  let cur = Array.unsafe_get slots i in
  let old = if cur == absent then None else Some cur in
  let ixs = covering_of_slot db (layout_of o) i in
  (match (ixs, old) with
  | [], _ | _, None -> ()
  | ixs, Some ov -> List.iter (fun ix -> index_remove ix ov o.id) ixs);
  (match v with
  | Some nv ->
    Array.unsafe_set slots i nv;
    if ixs <> [] then List.iter (fun ix -> index_add ix nv o.id) ixs
  | None -> Array.unsafe_set slots i absent);
  old

(* Set or remove ([v = None]) an attribute by name, keeping covering indexes
   in sync.  Returns the previous binding. *)
let raw_set_attr db (o : obj) name v =
  let i = slot_by_name o name in
  if i >= 0 then raw_set_slot db o i v
  else
    match v with
    | None -> None (* removing an attribute the layout never had *)
    | Some _ -> raise (Errors.No_such_attribute (o.cls, name))

(* Add ([index_add]) or remove ([index_remove]) every present attribute of
   [o] to or from the indexes covering it.  The covering lists come from the
   layout's per-slot cache, as in [raw_set_slot], so an object create or
   delete hashes nothing, and walks no slot when no index covers its
   class. *)
let reindex_all_attrs op db (o : obj) =
  let slots = o.store in
  let ly = layout_of o in
  if ly.ly_ix_stamp <> db.index_gen then refresh_covering db ly;
  if ly.ly_covered then
    for i = 0 to Array.length slots - 1 do
      let v = Array.unsafe_get slots i in
      if v != absent then
        match Array.unsafe_get ly.ly_covering i with
        | [] -> ()
        | ixs -> List.iter (fun ix -> op ix v o.id) ixs
    done

(* --- subscription reverse index -------------------------------------------- *)

let subscriptions_of db consumer =
  match Oid.Table.find_opt db.subscriptions consumer with
  | Some s -> s
  | None ->
    let s = { sb_objects = Oid.Table.create 1; sb_classes = [] } in
    Oid.Table.replace db.subscriptions consumer s;
    s

let drop_if_empty db consumer s =
  if s.sb_classes = [] && Oid.Table.length s.sb_objects = 0 then
    Oid.Table.remove db.subscriptions consumer

let note_subscription db ~reactive ~consumer =
  Oid.Table.replace (subscriptions_of db consumer).sb_objects reactive ()

let forget_subscription db ~reactive ~consumer =
  match Oid.Table.find_opt db.subscriptions consumer with
  | None -> ()
  | Some s ->
    Oid.Table.remove s.sb_objects reactive;
    drop_if_empty db consumer s

let note_class_subscription db ~cls ~consumer =
  let s = subscriptions_of db consumer in
  if not (List.mem cls s.sb_classes) then s.sb_classes <- cls :: s.sb_classes

let forget_class_subscription db ~cls ~consumer =
  match Oid.Table.find_opt db.subscriptions consumer with
  | None -> ()
  | Some s ->
    s.sb_classes <- List.filter (fun c -> not (String.equal c cls)) s.sb_classes;
    drop_if_empty db consumer s

(* Replace a class's consumer list wholesale (snapshot loading), keeping the
   reverse index in step. *)
let set_class_consumers db cls consumers =
  (match Hashtbl.find_opt db.class_consumers cls with
  | Some old -> List.iter (fun consumer -> forget_class_subscription db ~cls ~consumer) old
  | None -> ());
  List.iter (fun consumer -> note_class_subscription db ~cls ~consumer) consumers;
  if consumers = [] then Hashtbl.remove db.class_consumers cls
  else Hashtbl.replace db.class_consumers cls consumers

let insert_obj db o =
  List.iter (fun consumer -> note_subscription db ~reactive:o.id ~consumer) o.consumers;
  Oid.Table.replace db.objects o.id o;
  Oid.Table.replace o.info.ri_extent o.id ();
  reindex_all_attrs index_add db o;
  mark_dirty db o;
  (* undo of a delete resurrects the OID: it is live again, not dead *)
  Oid.Table.remove db.dirty_dead o.id

let remove_obj db o =
  List.iter (fun consumer -> forget_subscription db ~reactive:o.id ~consumer) o.consumers;
  reindex_all_attrs index_remove db o;
  Oid.Table.remove o.info.ri_extent o.id;
  Oid.Table.remove db.objects o.id;
  Oid.Table.remove db.dirty o.id;
  o.dirty_gen <- 0;
  Oid.Table.replace db.dirty_dead o.id ()

(* --- schema evolution support -------------------------------------------- *)

(* Re-point an object at its class's freshly computed info, rewriting the
   slot array when the layout's attribute set changed.  Values are carried
   by symbol; slots new to the layout start absent (Evolution backfills and
   indexes them explicitly), and values whose slot disappeared are dropped
   (Evolution unindexed them before the spec change). *)
let migrate_obj (o : obj) (ninfo : class_info) =
  let oly = o.info.ri_layout and nly = ninfo.ri_layout in
  if oly != nly && oly.ly_syms <> nly.ly_syms then begin
    let fresh = Array.make (Array.length nly.ly_syms) absent in
    Array.iteri
      (fun i s ->
        match Hashtbl.find_opt oly.ly_by_sym s with
        | Some j -> fresh.(i) <- o.store.(j)
        | None -> ())
      nly.ly_syms;
    o.store <- fresh
  end;
  o.info <- ninfo

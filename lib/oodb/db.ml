open Types

type t = db
type slot = Types.slot

let create () =
  {
    next_oid = 1;
    oid_stride = 1;
    now = 0;
    next_txn_id = 1;
    wal_applied_seq = 0;
    snapshot_seq = 0;
    dirty = Oid.Table.create 256;
    dirty_dead = Oid.Table.create 64;
    ckpt_gen = 1;
    objects = Oid.Table.create 1024;
    classes = Hashtbl.create 64;
    extents = Hashtbl.create 64;
    class_info = Hashtbl.create 64;
    class_consumers = Hashtbl.create 16;
    subscriptions = Oid.Table.create 64;
    indexes = Hashtbl.create 16;
    txns = [];
    notify = (fun _ ~consumer:_ _ -> ());
    route = None;
    taps = [];
    on_journal = None;
    schema_gen = 0;
    class_sub_gen = 0;
    index_gen = 0;
    deliver_scratch = [];
    stats =
      {
        sends = 0;
        events_generated = 0;
        notifications = 0;
        txns_committed = 0;
        txns_aborted = 0;
        wal_batches_replayed = 0;
        wal_batches_discarded = 0;
        wal_checksum_failures = 0;
        wal_fsyncs = 0;
        wal_bytes = 0;
        snapshot_bytes = 0;
        group_commit_batches = 0;
        delta_checkpoints = 0;
      };
  }

let now db = db.now

let tick db =
  db.now <- db.now + 1;
  db.now

let advance_clock db t = if t > db.now then db.now <- t

let journal db e = match db.on_journal with Some f -> f e | None -> ()

(* Generation stamps: cheap monotone counters that let derived caches (the
   Events.Route subsumption and subscription sets) detect staleness with one
   integer compare instead of a change-notification protocol. *)
let schema_generation db = db.schema_gen
let bump_schema_gen db = db.schema_gen <- db.schema_gen + 1
let class_sub_generation db = db.class_sub_gen
let bump_class_sub_gen db = db.class_sub_gen <- db.class_sub_gen + 1

let stats db = db.stats

let reset_stats db =
  let s = db.stats in
  s.sends <- 0;
  s.events_generated <- 0;
  s.notifications <- 0;
  s.txns_committed <- 0;
  s.txns_aborted <- 0;
  s.wal_batches_replayed <- 0;
  s.wal_batches_discarded <- 0;
  s.wal_checksum_failures <- 0;
  s.wal_fsyncs <- 0;
  s.wal_bytes <- 0;
  s.snapshot_bytes <- 0;
  s.group_commit_batches <- 0;
  s.delta_checkpoints <- 0

(* --- schema ------------------------------------------------------------ *)

let info = Heap.class_info

let compute_info db (c : class_def) =
  let parent = Option.map (info db) c.super in
  let ri_ancestry =
    c.cname :: (match parent with Some p -> p.ri_ancestry | None -> [])
  in
  let ri_reactive =
    c.reactive || match parent with Some p -> p.ri_reactive | None -> false
  in
  (* Effective event interface: inherited entries, overridden by our own. *)
  let ri_iface = Hashtbl.create 8 in
  (match parent with
  | Some p -> Hashtbl.iter (Hashtbl.replace ri_iface) p.ri_iface
  | None -> ());
  Hashtbl.iter (Hashtbl.replace ri_iface) c.interface;
  (* Slot layout.  Schema.all_attrs walks root-first, so the slots of this
     class are the parent's slots followed by our own declarations: the
     subclass prefix invariant that makes a resolved slot index valid across
     a deep extent. *)
  let spec = Schema.all_attrs db c.cname in
  let n = List.length spec in
  let ly_names = Array.make n "" in
  let ly_defaults = Array.make n Value.Null in
  List.iteri
    (fun i (name, d) ->
      ly_names.(i) <- name;
      ly_defaults.(i) <- d)
    spec;
  let ly_syms = Array.map Symbol.intern ly_names in
  let ly_by_name = Hashtbl.create (max 4 n) in
  let ly_by_sym = Hashtbl.create (max 4 n) in
  Array.iteri
    (fun i name ->
      Hashtbl.replace ly_by_name name i;
      Hashtbl.replace ly_by_sym ly_syms.(i) i)
    ly_names;
  (match parent with
  | Some p ->
    (* prefix invariant: cheap to check once per class (re)definition *)
    let psyms = p.ri_layout.ly_syms in
    assert (Array.length psyms <= n);
    Array.iteri (fun i s -> assert (Symbol.equal ly_syms.(i) s)) psyms
  | None -> ());
  let ri_layout =
    {
      ly_class = c.cname;
      ly_class_sym = Symbol.intern c.cname;
      ly_names;
      ly_syms;
      ly_defaults;
      ly_by_name;
      ly_by_sym;
      ly_ix_stamp = -1;
      ly_covering = Array.make n [];
      ly_covered = false;
    }
  in
  (* Dispatch cache: implementation, effective interface entry and interned
     name per understood method, so Db.send resolves a message with one
     hashtable probe. *)
  let ri_dispatch = Hashtbl.create 16 in
  List.iter
    (fun m ->
      Hashtbl.replace ri_dispatch m
        {
          de_method = Schema.lookup_method db c.cname m;
          de_iface = Hashtbl.find_opt ri_iface m;
          de_sym = Symbol.intern m;
        })
    (Schema.methods_of db c.cname);
  {
    ri_reactive;
    ri_ancestry;
    ri_iface;
    ri_layout;
    ri_dispatch;
    ri_extent = Heap.extent_table db c.cname;
  }

let define_class db (c : class_def) =
  if Hashtbl.mem db.classes c.cname then raise (Errors.Duplicate_class c.cname);
  (match c.super with
  | Some s when not (Hashtbl.mem db.classes s) ->
    raise (Errors.No_such_class s)
  | _ -> ());
  Hashtbl.replace db.classes c.cname c;
  let ri = compute_info db c in
  (* Every event-interface method must resolve along the chain. *)
  let check_event m _ = ignore (Schema.lookup_method db c.cname m) in
  (try Hashtbl.iter check_event c.interface
   with e ->
     Hashtbl.remove db.classes c.cname;
     raise e);
  if Hashtbl.length c.interface > 0 && not ri.ri_reactive then begin
    Hashtbl.remove db.classes c.cname;
    Errors.type_error "class %s declares an event interface but is not reactive"
      c.cname
  end;
  Hashtbl.replace db.class_info c.cname ri;
  (* A new class extends subsumption sets of its ancestors. *)
  bump_schema_gen db

let classes db = Hashtbl.fold (fun name _ acc -> name :: acc) db.classes []
let has_class db name = Hashtbl.mem db.classes name

(* --- objects ------------------------------------------------------------ *)

let new_object db ?(attrs = []) cls =
  let info = info db cls in
  let store = Heap.fresh_store info `Defaults in
  (* each name resolves to its slot once, by position when [attrs] follows
     the layout (as System's rule and event objects do), by hash otherwise *)
  let names = info.ri_layout.ly_names in
  let next = ref 0 in
  List.iter
    (fun (name, v) ->
      let i =
        if !next < Array.length names && String.equal names.(!next) name then !next
        else
          match Hashtbl.find_opt info.ri_layout.ly_by_name name with
          | Some i -> i
          | None -> raise (Errors.No_such_attribute (cls, name))
      in
      store.(i) <- v;
      next := i + 1)
    attrs;
  let id = Oid.of_int db.next_oid in
  db.next_oid <- db.next_oid + db.oid_stride;
  (* the record is built once, filled store and final OID together *)
  let o = Heap.make_obj ~id ~cls ~info ~store ~consumers:[] in
  Heap.insert_obj db o;
  Transaction.log_undo db (U_created id);
  (match db.on_journal with
  | None -> ()
  | Some f -> f (J_mutation (M_create (id, cls, Heap.sorted_attrs o))));
  id

(* Align the allocator to the shard's residue class.  Called at shard setup
   and again after recovery (replay restores next_oid monotonically but not
   the stride, which is never persisted). *)
let configure_shard db ~index ~of_ =
  if of_ <= 0 || index < 0 || index >= of_ then
    invalid_arg "Db.configure_shard: need 0 <= index < of_";
  db.oid_stride <- of_;
  let base = max db.next_oid 1 in
  let residue = index mod of_ in
  let k = ref base in
  while !k mod of_ <> residue do
    incr k
  done;
  db.next_oid <- !k

let delete_object db oid =
  let o = Heap.find_obj db oid in
  Transaction.log_undo db (U_deleted o);
  o.alive <- false;
  Heap.remove_obj db o;
  journal db (J_mutation (M_delete oid))

let exists db oid =
  match Oid.Table.find_opt db.objects oid with
  | Some o -> o.alive
  | None -> false

let class_of db oid = (Heap.find_obj db oid).cls

let is_instance_of db oid cls =
  let o = Heap.find_obj db oid in
  List.exists (String.equal cls) o.info.ri_ancestry

let get db oid name =
  let o = Heap.find_obj db oid in
  match Hashtbl.find_opt o.info.ri_layout.ly_by_name name with
  | Some i ->
    let v = Array.unsafe_get o.store i in
    if v == absent then raise (Errors.No_such_attribute (o.cls, name)) else v
  | None -> raise (Errors.No_such_attribute (o.cls, name))

let get_opt db oid name = Heap.obj_get (Heap.find_obj db oid) name

let log_set db oid name old v =
  Transaction.log_undo db (U_set_attr (oid, name, old));
  journal db (J_mutation (M_set (oid, name, v)))

let set db oid name v =
  let o = Heap.find_obj db oid in
  match Hashtbl.find_opt o.info.ri_layout.ly_by_name name with
  | Some i when Array.unsafe_get o.store i != absent ->
    log_set db oid name (Heap.raw_set_slot db o i (Some v)) v
  | _ -> raise (Errors.No_such_attribute (o.cls, name))

let attrs db oid = Heap.sorted_attrs (Heap.find_obj db oid)

(* --- pre-resolved slots -------------------------------------------------- *)

(* Observability stages (lib/obs), registered once at module initialisation
   and keyed by interned symbols.  The [!Obs.armed] guard keeps the disabled
   cost of each instrumented entry point to one ref load and one branch; the
   sample shifts bound the enabled cost of the sub-100ns operations (the
   counter counts every call, only 1 in 2^shift is timed). *)
let st_send =
  Obs.Metrics.register ~id:(Symbol.intern "db.send") ~sample_shift:4 "db.send"

let st_slot_get =
  Obs.Metrics.register
    ~id:(Symbol.intern "db.slot_get")
    ~sample_shift:6 "db.slot_get"

let st_slot_set =
  Obs.Metrics.register
    ~id:(Symbol.intern "db.slot_set")
    ~sample_shift:6 "db.slot_set"

let resolve db cls name =
  let i = info db cls in
  match Hashtbl.find_opt i.ri_layout.ly_by_name name with
  | Some idx ->
    { sl_name = name; sl_sym = i.ri_layout.ly_syms.(idx); sl_index = idx }
  | None -> raise (Errors.No_such_attribute (cls, name))

(* Validate a handle against the object's current layout: one array read and
   an int compare on the hot path; a miss (layout evolved, or the handle was
   resolved against an unrelated class) re-resolves by name. *)
let slot_index (o : obj) (s : slot) =
  let syms = o.info.ri_layout.ly_syms in
  let i = s.sl_index in
  if i < Array.length syms && Symbol.equal (Array.unsafe_get syms i) s.sl_sym
  then i
  else
    match Hashtbl.find_opt o.info.ri_layout.ly_by_name s.sl_name with
    | Some j -> j
    | None -> raise (Errors.No_such_attribute (o.cls, s.sl_name))

let slot_get_raw db oid (s : slot) =
  let o = Heap.find_obj db oid in
  let v = Array.unsafe_get o.store (slot_index o s) in
  if v == absent then raise (Errors.No_such_attribute (o.cls, s.sl_name))
  else v

let slot_get db oid (s : slot) =
  if not !Obs.armed then slot_get_raw db oid s
  else begin
    let t0 = Obs.Metrics.enter st_slot_get in
    match slot_get_raw db oid s with
    | v ->
      Obs.Metrics.exit st_slot_get t0;
      v
    | exception e ->
      Obs.Metrics.exit st_slot_get t0;
      raise e
  end

let slot_get_opt db oid (s : slot) =
  let o = Heap.find_obj db oid in
  match Hashtbl.find_opt o.info.ri_layout.ly_by_name s.sl_name with
  | None -> None
  | Some _ ->
    let v = Array.unsafe_get o.store (slot_index o s) in
    if v == absent then None else Some v

let slot_set_raw db oid (s : slot) v =
  let o = Heap.find_obj db oid in
  let i = slot_index o s in
  if Array.unsafe_get o.store i == absent then
    raise (Errors.No_such_attribute (o.cls, s.sl_name));
  log_set db oid s.sl_name (Heap.raw_set_slot db o i (Some v)) v

let slot_set db oid (s : slot) v =
  if not !Obs.armed then slot_set_raw db oid s v
  else begin
    let t0 = Obs.Metrics.enter st_slot_set in
    match slot_set_raw db oid s v with
    | () -> Obs.Metrics.exit st_slot_set t0
    | exception e ->
      Obs.Metrics.exit st_slot_set t0;
      raise e
  end

(* --- subscription ------------------------------------------------------- *)

(* Consumer lists are stored newest-first so subscription is O(1) instead of
   the former quadratic [old @ [consumer]]; readers that care about
   subscription order iterate in reverse.  Tail-recursive: consumer and tap
   lists can be arbitrarily long, so the reversal is materialized instead of
   borrowed from the call stack. *)
let iter_rev f l =
  match l with
  | [] -> ()
  | [ x ] -> f x
  | l -> List.iter f (List.rev l)

let subscribe db ~reactive ~consumer =
  let o = Heap.find_obj db reactive in
  if not (List.exists (Oid.equal consumer) o.consumers) then begin
    Transaction.log_undo db (U_consumers (reactive, o.consumers));
    Transaction.log_undo db
      (U_runtime (fun () -> Heap.forget_subscription db ~reactive ~consumer));
    o.consumers <- consumer :: o.consumers;
    Heap.note_subscription db ~reactive ~consumer;
    Heap.mark_dirty db o;
    journal db (J_mutation (M_subscribe (reactive, consumer)))
  end

(* Take [consumer] off [o]'s list; the caller keeps the reverse index. *)
let drop_consumer db (o : obj) consumer =
  Transaction.log_undo db (U_consumers (o.id, o.consumers));
  o.consumers <- List.filter (fun c -> not (Oid.equal c consumer)) o.consumers;
  Heap.mark_dirty db o;
  journal db (J_mutation (M_unsubscribe (o.id, consumer)))

let unsubscribe db ~reactive ~consumer =
  let o = Heap.find_obj db reactive in
  if List.exists (Oid.equal consumer) o.consumers then begin
    Transaction.log_undo db
      (U_runtime (fun () -> Heap.note_subscription db ~reactive ~consumer));
    drop_consumer db o consumer;
    Heap.forget_subscription db ~reactive ~consumer
  end

let consumers_of db oid = List.rev (Heap.find_obj db oid).consumers

let raw_class_consumers db cls =
  if not (Hashtbl.mem db.classes cls) then raise (Errors.No_such_class cls);
  Option.value ~default:[] (Hashtbl.find_opt db.class_consumers cls)

let class_consumers_of db cls = List.rev (raw_class_consumers db cls)

let subscribe_class db ~cls ~consumer =
  let old = raw_class_consumers db cls in
  if not (List.exists (Oid.equal consumer) old) then begin
    Transaction.log_undo db (U_class_consumers (cls, old));
    Transaction.log_undo db
      (U_runtime (fun () -> Heap.forget_class_subscription db ~cls ~consumer));
    Hashtbl.replace db.class_consumers cls (consumer :: old);
    Heap.note_class_subscription db ~cls ~consumer;
    bump_class_sub_gen db;
    journal db (J_mutation (M_subscribe_class (cls, consumer)))
  end

let drop_class_consumer db cls old consumer =
  Transaction.log_undo db (U_class_consumers (cls, old));
  Hashtbl.replace db.class_consumers cls
    (List.filter (fun c -> not (Oid.equal c consumer)) old);
  bump_class_sub_gen db;
  journal db (J_mutation (M_unsubscribe_class (cls, consumer)))

let unsubscribe_class db ~cls ~consumer =
  let old = raw_class_consumers db cls in
  if List.exists (Oid.equal consumer) old then begin
    Transaction.log_undo db
      (U_runtime (fun () -> Heap.note_class_subscription db ~cls ~consumer));
    drop_class_consumer db cls old consumer;
    Heap.forget_class_subscription db ~cls ~consumer
  end

(* Retire a consumer from every object and class it is subscribed to.  Its
   reverse-index entry leaves whole (one undo record puts it back); each
   list edit is an ordinary unsubscription, undo-logged and journaled, so a
   rollback restores them and WAL replay reaches the same state.  Cost: the
   consumer's own subscriptions, never a heap or class-list scan. *)
let unsubscribe_all db ~consumer =
  match Oid.Table.find_opt db.subscriptions consumer with
  | None -> ()
  | Some subs ->
    Oid.Table.remove db.subscriptions consumer;
    Transaction.log_undo db
      (U_runtime (fun () -> Oid.Table.replace db.subscriptions consumer subs));
    Oid.sorted_keys subs.sb_objects
    |> Array.iter (fun r -> drop_consumer db (Heap.find_obj db r) consumer);
    List.sort String.compare subs.sb_classes
    |> List.iter (fun cls ->
           drop_class_consumer db cls (raw_class_consumers db cls) consumer)

let set_notify db f = db.notify <- f
let set_route db f = db.route <- f
let add_tap db f = db.taps <- f :: db.taps
let clear_taps db = db.taps <- []

(* --- event generation and delivery -------------------------------------- *)

(* The per-event dedup table is pooled rather than allocated per delivery;
   rule actions can generate further events, so deliver is reentrant and a
   single scratch table would be corrupted mid-iteration. *)
let scratch_acquire db =
  match db.deliver_scratch with
  | t :: rest ->
    db.deliver_scratch <- rest;
    t
  | [] -> Oid.Table.create 32

let scratch_release db t =
  Oid.Table.reset t;
  db.deliver_scratch <- t :: db.deliver_scratch

let broadcast db (o : obj) occ =
  (* Instance-level consumers first, then class-level ones along the chain;
     a consumer subscribed both ways hears the occurrence once. *)
  let seen = scratch_acquire db in
  Fun.protect
    ~finally:(fun () -> scratch_release db seen)
    (fun () ->
      let notify_once c =
        if not (Oid.Table.mem seen c) then begin
          Oid.Table.replace seen c ();
          db.stats.notifications <- db.stats.notifications + 1;
          db.notify db ~consumer:c occ
        end
      in
      iter_rev notify_once o.consumers;
      let class_level cls =
        match Hashtbl.find_opt db.class_consumers cls with
        | Some cs -> iter_rev notify_once cs
        | None -> ()
      in
      List.iter class_level o.info.ri_ancestry)

let deliver db (o : obj) occ =
  db.stats.events_generated <- db.stats.events_generated + 1;
  iter_rev (fun tap -> tap db occ) db.taps;
  match db.route with
  | Some route -> route db o occ
  | None -> broadcast db o occ

let make_occurrence db (o : obj) ~meth ~meth_sym modifier params =
  {
    source = o.id;
    source_class = o.cls;
    class_sym = o.info.ri_layout.ly_class_sym;
    meth;
    meth_sym;
    modifier;
    params;
    at = tick db;
  }

let signal db ~source ~meth ~modifier params =
  let o = Heap.find_obj db source in
  deliver db o
    (make_occurrence db o ~meth ~meth_sym:(Symbol.intern meth) modifier params)

let send_raw db receiver meth args =
  let o = Heap.find_obj db receiver in
  db.stats.sends <- db.stats.sends + 1;
  let i = o.info in
  match Hashtbl.find_opt i.ri_dispatch meth with
  | None -> raise (Errors.No_such_method (o.cls, meth))
  | Some de ->
    if not i.ri_reactive then de.de_method.impl db receiver args
    else begin
      match de.de_iface with
      | None -> de.de_method.impl db receiver args
      | Some entry ->
        if entry.on_begin then
          deliver db o
            (make_occurrence db o ~meth ~meth_sym:de.de_sym Before args);
        let result = de.de_method.impl db receiver args in
        if entry.on_end then
          deliver db o
            (make_occurrence db o ~meth ~meth_sym:de.de_sym After args);
        result
    end

(* A traced send is the root of a cascade: Trace.enter assigns a fresh trace
   id when no span is live, and any rule action sending further messages
   nests inside this span under the same id. *)
let send db receiver meth args =
  if not !Obs.armed then send_raw db receiver meth args
  else begin
    let t0 = Obs.Metrics.enter st_send in
    let tok = Obs.Trace.enter "send" meth in
    match send_raw db receiver meth args with
    | r ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_send t0;
      r
    | exception e ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_send t0;
      raise e
  end

(* Vectorized send.  Each event of the batch executes exactly as
   [send_raw] — begin-occurrence, implementation, end-occurrence, in batch
   order — so firings, audit entries and detector states are identical to N
   sequential sends.  What the batch amortizes is the observability
   envelope: one "send_many" cascade span (the root every event's cascade
   nests under) and one histogram sample cover the vector, with per-event
   "send" spans sampled 1-in-16 rather than unconditional.  Route-key
   coalescing lives one layer up: [System.ingest] wraps this call in
   [Events.Route.with_batch]. *)
let st_send_many =
  Obs.Metrics.register ~id:(Symbol.intern "db.send_many") "db.send_many"

let send_many_raw db batch =
  List.map (fun (receiver, meth, args) -> send_raw db receiver meth args) batch

let send_many db batch =
  match batch with
  | [] -> []
  | [ (receiver, meth, args) ] -> [ send db receiver meth args ]
  | _ ->
    if not !Obs.armed then send_many_raw db batch
    else begin
      let t0 = Obs.Metrics.enter st_send_many in
      let tok =
        Obs.Trace.enter "send_many"
          (Printf.sprintf "batch:%d" (List.length batch))
      in
      let finish () =
        Obs.Trace.exit tok;
        Obs.Metrics.exit st_send_many t0
      in
      match
        List.mapi
          (fun i (receiver, meth, args) ->
            (* the send stage still counts every event; only the envelope
               (span + timing) is per batch *)
            Obs.Metrics.hit st_send;
            if i land 15 = 0 && !Obs.Trace.on then begin
              let tk = Obs.Trace.enter "send" meth in
              match send_raw db receiver meth args with
              | r ->
                Obs.Trace.exit tk;
                r
              | exception e ->
                Obs.Trace.exit tk;
                raise e
            end
            else send_raw db receiver meth args)
          batch
      with
      | rs ->
        finish ();
        rs
      | exception e ->
        finish ();
        raise e
    end

(* --- extents and indexes ------------------------------------------------ *)

let subclasses db cls =
  Hashtbl.fold
    (fun name i acc ->
      if List.exists (String.equal cls) i.ri_ancestry then name :: acc else acc)
    db.class_info []

(* The instances of [classes], in OID order.  OID order is allocation
   order, so a walk in it reads the heap mostly front to back: over 100k
   objects, twice as fast as the extent tables' hash order, sort included. *)
let extent_oids db classes =
  let extents = List.filter_map (Hashtbl.find_opt db.extents) classes in
  let oids =
    Array.make (List.fold_left (fun n e -> n + Oid.Table.length e) 0 extents) (Oid.of_int 0)
  in
  let n = ref 0 in
  List.iter
    (Oid.Table.iter (fun oid () ->
         oids.(!n) <- oid;
         incr n))
    extents;
  Oid.sort oids;
  oids

let extent db ?(deep = true) cls =
  if not (Hashtbl.mem db.classes cls) then raise (Errors.No_such_class cls);
  Array.to_list (extent_oids db (if deep then subclasses db cls else [ cls ]))

(* Call [f v oid] for every object of [oids] whose [attr] is present.  The
   slot is resolved once per layout, not by name per object. *)
let iter_attr db oids attr f =
  let resolved = ref None in
  let slot_of ly =
    match !resolved with
    | Some (ly', i) when ly' == ly -> i
    | _ ->
      let i = Option.value ~default:(-1) (Hashtbl.find_opt ly.ly_by_name attr) in
      resolved := Some (ly, i);
      i
  in
  Array.iter
    (fun oid ->
      let o = Oid.Table.find db.objects oid in
      let i = slot_of (Heap.layout_of o) in
      if i >= 0 then
        let v = Array.unsafe_get o.store i in
        if v != absent then f v oid)
    oids

(* An index is built in one pass over its extents, not by per-object
   inserts: a hash index into a table sized to the extent, an ordered one
   by loading the B+-tree bottom-up from its sorted (value, OID) pairs.
   Snapshot loads and WAL replay build every index this way. *)
let create_index db ?(kind = `Hash) ~cls ~attr () =
  if not (Hashtbl.mem db.classes cls) then raise (Errors.No_such_class cls);
  if not (Hashtbl.mem db.indexes (cls, attr)) then begin
    let oids = extent_oids db (subclasses db cls) in
    let make ix_backing = { ix_class = cls; ix_attr = attr; ix_backing } in
    let ix =
      match kind with
      | `Hash ->
        let ix = make (Ix_hash (Hashtbl.create (Array.length oids))) in
        iter_attr db oids attr (Heap.index_add ix);
        ix
      | `Ordered ->
        let pairs = Array.make (Array.length oids) (Value.Null, Oid.of_int 0) in
        let n = ref 0 in
        iter_attr db oids attr (fun v oid ->
            pairs.(!n) <- (v, oid);
            incr n);
        make (Ix_ordered (Btree.of_pairs (Array.sub pairs 0 !n)))
    in
    Hashtbl.replace db.indexes (cls, attr) ix;
    db.index_gen <- db.index_gen + 1;
    journal db (J_mutation (M_create_index (cls, attr, kind = `Ordered)))
  end

let drop_index db ~cls ~attr =
  if Hashtbl.mem db.indexes (cls, attr) then begin
    Hashtbl.remove db.indexes (cls, attr);
    db.index_gen <- db.index_gen + 1;
    journal db (J_mutation (M_drop_index (cls, attr)))
  end
let has_index db ~cls ~attr = Hashtbl.mem db.indexes (cls, attr)

let index_kind db ~cls ~attr =
  match Hashtbl.find_opt db.indexes (cls, attr) with
  | None -> None
  | Some { ix_backing = Ix_hash _; _ } -> Some `Hash
  | Some { ix_backing = Ix_ordered _; _ } -> Some `Ordered

let find_index db ~cls ~attr =
  match Hashtbl.find_opt db.indexes (cls, attr) with
  | None -> Errors.type_error "no index on %s.%s" cls attr
  | Some ix -> ix

let index_lookup db ~cls ~attr v =
  match (find_index db ~cls ~attr).ix_backing with
  | Ix_hash entries -> (
    match Hashtbl.find_opt entries v with
    | None -> []
    | Some p -> Postings.to_list p)
  | Ix_ordered tree -> Btree.find tree v

let index_range db ~cls ~attr ?lo ?hi () =
  match (find_index db ~cls ~attr).ix_backing with
  | Ix_hash _ ->
    Errors.type_error "index on %s.%s is a hash index; ranges need ~kind:`Ordered"
      cls attr
  | Ix_ordered tree ->
    Btree.range tree ?lo ?hi () |> List.concat_map snd |> List.sort Oid.compare

let index_pairs db ~cls ~attr =
  let out = ref [] in
  (match (find_index db ~cls ~attr).ix_backing with
  | Ix_hash entries ->
    Hashtbl.iter (fun v p -> Postings.iter (fun oid -> out := (v, oid) :: !out) p) entries
  | Ix_ordered tree ->
    Btree.iter tree (fun v oids -> List.iter (fun oid -> out := (v, oid) :: !out) oids));
  List.sort
    (fun (v1, o1) (v2, o2) ->
      match Value.compare v1 v2 with 0 -> Oid.compare o1 o2 | c -> c)
    !out

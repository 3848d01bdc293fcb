open Import

(* A discrimination (alpha) index over the primitive leaves of every
   registered detector.  One hashtable keyed by (method, modifier) maps an
   occurrence to the candidate leaves across all consumers; per-candidate
   checks are then subscription, class subsumption, source set and parameter
   filters — each O(1) or O(size of the candidate's own predicate).  The
   class-derived sets are cached per entry and invalidated by comparing the
   database's generation stamps, so steady-state delivery never walks the
   class hierarchy. *)

type counters = {
  mutable candidates_probed : int;
  mutable leaves_offered : int;
  mutable index_hits : int;
  mutable batch_events : int;  (* occurrences delivered through deliver_many *)
  mutable coalesced_probes : int;
      (* index probes skipped by batch route-key coalescing: deliveries
         whose key's candidate list was already resolved this batch *)
  mutable tombstones_skipped : int;
      (* unregistered entries a delivery passed over before its bucket's
         rebuild dropped them *)
}

(* Bucket keys pack the interned method name and the modifier into one int —
   [(meth_sym lsl 1) lor modifier_bit] — so a delivery probe neither hashes
   a string nor allocates a tuple. *)
let modifier_bit = function Oodb.Types.Before -> 0 | Oodb.Types.After -> 1
let key_of ~meth_sym ~modifier = (meth_sym lsl 1) lor modifier_bit modifier

let key_of_occ (occ : Occurrence.t) =
  (occ.Oodb.Occurrence.meth_sym lsl 1)
  lor modifier_bit occ.Oodb.Occurrence.modifier

type reg = {
  r_consumer : Oid.t;
  (* set once by [unregister]: the registration's entries stay in their
     buckets as tombstones until the bucket's next rebuild *)
  mutable r_dead : bool;
  mutable r_buckets : bucket list;  (* the bucket of each of its leaves *)
  r_detector : Detector.t option;  (* [None] for wildcard handlers *)
  r_guard : unit -> bool;
  r_on_receive : Occurrence.t -> unit;
  r_temporal : bool;
  mutable r_seen : int;  (* delivery sequence last received; dedups fan-in *)
  (* Classes whose instances this consumer hears through class-level
     subscription: for each subscribed class, that class and everything
     below it.  Stamped against both generations — the set changes when the
     hierarchy changes or when (un)subscription (including rollback) does. *)
  mutable r_sub_schema_stamp : int;
  mutable r_sub_stamp : int;
  r_sub_accept : (Symbol.t, unit) Hashtbl.t;
}

and entry = {
  e_reg : reg;
  e_leaf : Detector.leaf;
  e_prim : Expr.prim;
  (* [p_class]'s subsumption set — the declared class and its subclasses —
     resolved once per schema generation.  [None] when the leaf matches any
     class.  A stamp of -1 means never computed. *)
  e_classes : (Symbol.t, unit) Hashtbl.t option;
  mutable e_class_stamp : int;
}

(* A bucket's lists may hold tombstones (entries of unregistered
   consumers); [b_live] and [b_dead] count the two kinds.  The rebuild of
   [b_ordered] drops every tombstone, so a delivery walks at most the
   entries unregistered since that rebuild. *)
and bucket = {
  b_key : int;
  mutable b_rev : entry list;  (* newest first: O(1) insertion *)
  mutable b_ordered : entry list;  (* registration order; rebuilt lazily *)
  mutable b_live : int;
  mutable b_dead : int;
}

type t = {
  rt_db : Db.t;
  index : (int, bucket) Hashtbl.t;
  regs : reg Oid.Table.t;  (* detector registrations, by consumer *)
  temporal : reg Oid.Table.t;  (* subset whose detectors need clock driving *)
  wildcards : reg Oid.Table.t;  (* handlers that hear every subscribed event *)
  (* [wildcards] and [temporal] in ascending consumer OID, the order a
     delivery calls them in; rebuilt by the first delivery after either
     table changed *)
  mutable wildcard_order : reg array;
  mutable temporal_order : reg array;
  mutable order_stale : bool;
  mutable seq : int;
  (* bumped whenever the index's buckets change (register/unregister); the
     batched delivery path stamps its per-batch key memo against it so a
     mid-batch (un)registration — e.g. a rule action creating a rule —
     invalidates the memo instead of serving stale candidate lists. *)
  mutable reg_gen : int;
  (* the live batch memo, when delivery is running under [with_batch]:
     distinct route key -> resolved candidate list, stamped against
     [reg_gen].  [None] outside a batch scope. *)
  mutable memo : (int, entry list) Hashtbl.t option;
  mutable memo_gen : int;
  counters : counters;
}

let create db =
  {
    rt_db = db;
    index = Hashtbl.create 64;
    regs = Oid.Table.create 64;
    temporal = Oid.Table.create 8;
    wildcards = Oid.Table.create 8;
    wildcard_order = [||];
    temporal_order = [||];
    order_stale = false;
    seq = 0;
    reg_gen = 0;
    memo = None;
    memo_gen = 0;
    counters =
      {
        candidates_probed = 0;
        leaves_offered = 0;
        index_hits = 0;
        batch_events = 0;
        coalesced_probes = 0;
        tombstones_skipped = 0;
      };
  }

let counters t = t.counters

let reset_counters t =
  let c = t.counters in
  c.candidates_probed <- 0;
  c.leaves_offered <- 0;
  c.index_hits <- 0;
  c.batch_events <- 0;
  c.coalesced_probes <- 0;
  c.tombstones_skipped <- 0

(* --- registration ------------------------------------------------------- *)

let bucket t key =
  match Hashtbl.find_opt t.index key with
  | Some b -> b
  | None ->
    let b = { b_key = key; b_rev = []; b_ordered = []; b_live = 0; b_dead = 0 } in
    Hashtbl.replace t.index key b;
    b

(* Tombstone the registration's entries: O(own leaves), no bucket walk.  A
   bucket left with no live entry leaves the index at once; one whose
   tombstones outnumber its live entries is marked for rebuild, so the
   entries a delivery skips stay within the live ones.  [reg_gen] moves,
   so a batch memo re-probes after any (un)registration. *)
let drop_entries t reg =
  t.reg_gen <- t.reg_gen + 1;
  reg.r_dead <- true;
  List.iter
    (fun b ->
      b.b_live <- b.b_live - 1;
      b.b_dead <- b.b_dead + 1;
      if b.b_live = 0 then Hashtbl.remove t.index b.b_key
      else if b.b_dead > b.b_live then b.b_ordered <- [])
    reg.r_buckets;
  reg.r_buckets <- []

let unregister t consumer =
  (match Oid.Table.find_opt t.regs consumer with
  | Some reg ->
    drop_entries t reg;
    Oid.Table.remove t.regs consumer;
    if reg.r_temporal then begin
      Oid.Table.remove t.temporal consumer;
      t.order_stale <- true
    end
  | None -> ());
  match Oid.Table.find_opt t.wildcards consumer with
  | Some reg ->
    (* a delivery under way skips it from here on *)
    reg.r_dead <- true;
    Oid.Table.remove t.wildcards consumer;
    t.order_stale <- true
  | None -> ()

let default_guard () = true

let make_reg ~consumer ~detector ~guard ~on_receive ~temporal =
  {
    r_consumer = consumer;
    r_dead = false;
    r_buckets = [];
    r_detector = detector;
    r_guard = guard;
    r_on_receive = on_receive;
    r_temporal = temporal;
    r_seen = 0;
    r_sub_schema_stamp = -1;
    r_sub_stamp = -1;
    r_sub_accept = Hashtbl.create 8;
  }

let register t ~consumer ?(guard = default_guard) ~on_receive detector =
  if Oid.Table.mem t.regs consumer then unregister t consumer;
  let leaves = Detector.leaves detector in
  let key_of_prim (p : Expr.prim) =
    key_of ~meth_sym:(Symbol.intern p.Expr.p_meth) ~modifier:p.Expr.p_modifier
  in
  let temporal = Detector.has_temporal (Detector.expr detector) in
  let reg =
    make_reg ~consumer ~detector:(Some detector) ~guard ~on_receive ~temporal
  in
  List.iter
    (fun leaf ->
      let p = Detector.leaf_prim leaf in
      let b = bucket t (key_of_prim p) in
      let entry =
        {
          e_reg = reg;
          e_leaf = leaf;
          e_prim = p;
          e_classes =
            (match p.Expr.p_class with
            | None -> None
            | Some _ -> Some (Hashtbl.create 8));
          e_class_stamp = -1;
        }
      in
      b.b_rev <- entry :: b.b_rev;
      b.b_ordered <- [];
      b.b_live <- b.b_live + 1;
      reg.r_buckets <- b :: reg.r_buckets)
    leaves;
  t.reg_gen <- t.reg_gen + 1;
  Oid.Table.replace t.regs consumer reg;
  if temporal then begin
    Oid.Table.replace t.temporal consumer reg;
    t.order_stale <- true
  end

let register_wildcard t ~consumer ?(guard = default_guard) handler =
  let reg =
    make_reg ~consumer ~detector:None ~guard ~on_receive:handler
      ~temporal:false
  in
  (match Oid.Table.find_opt t.wildcards consumer with
  | Some old -> old.r_dead <- true
  | None -> ());
  Oid.Table.replace t.wildcards consumer reg;
  t.order_stale <- true

let registered t consumer =
  Oid.Table.mem t.regs consumer || Oid.Table.mem t.wildcards consumer

let reg_count t = Oid.Table.length t.regs + Oid.Table.length t.wildcards

let leaf_count t = Hashtbl.fold (fun _ b acc -> acc + b.b_live) t.index 0

(* --- cached predicate sets ---------------------------------------------- *)

(* The set of runtime classes the consumer hears via class-level
   subscription: for every class C it subscribes to, C and C's subclasses.
   Equivalent to the substrate walking the source's ancestry against
   [class_consumers], but probed with one hash lookup per event. *)
let refresh_sub_accept t reg =
  let sg = Db.schema_generation t.rt_db
  and cg = Db.class_sub_generation t.rt_db in
  if reg.r_sub_schema_stamp <> sg || reg.r_sub_stamp <> cg then begin
    Hashtbl.reset reg.r_sub_accept;
    List.iter
      (fun cls ->
        if List.exists (Oid.equal reg.r_consumer) (Db.class_consumers_of t.rt_db cls)
        then
          List.iter
            (fun sub -> Hashtbl.replace reg.r_sub_accept (Symbol.intern sub) ())
            (Db.subclasses t.rt_db cls))
      (Db.classes t.rt_db);
    reg.r_sub_schema_stamp <- sg;
    reg.r_sub_stamp <- cg
  end

let subscribed t reg (o : Oodb.Types.obj) =
  refresh_sub_accept t reg;
  Hashtbl.mem reg.r_sub_accept
    o.Oodb.Types.info.Oodb.Types.ri_layout.Oodb.Types.ly_class_sym
  || List.exists (Oid.equal reg.r_consumer) o.Oodb.Types.consumers

(* Same subsumption the detector leaf applies ([System.subsumes_of]): the
   declared class name itself always matches (covering synthetic classes
   like the detector's "<clock>"), and when it names a defined class so do
   its subclasses. *)
let class_ok t entry (occ : Occurrence.t) =
  match entry.e_classes with
  | None -> true
  | Some set ->
    let sg = Db.schema_generation t.rt_db in
    if entry.e_class_stamp <> sg then begin
      Hashtbl.reset set;
      (match entry.e_prim.Expr.p_class with
      | None -> ()
      | Some super ->
        Hashtbl.replace set (Symbol.intern super) ();
        List.iter
          (fun sub -> Hashtbl.replace set (Symbol.intern sub) ())
          (Db.subclasses t.rt_db super));
      entry.e_class_stamp <- sg
    end;
    Hashtbl.mem set occ.Oodb.Occurrence.class_sym

(* --- delivery ----------------------------------------------------------- *)

let st_route =
  Obs.Metrics.register
    ~id:(Symbol.intern "route.deliver")
    ~sample_shift:4 "route.deliver"

(* Rebuild the ordered list when registration or tombstone pressure has
   cleared it, dropping every tombstone on the way. *)
let entries_of_bucket b =
  match b.b_ordered with
  | [] ->
    if b.b_dead > 0 then begin
      b.b_rev <- List.filter (fun e -> not e.e_reg.r_dead) b.b_rev;
      b.b_dead <- 0
    end;
    let l = List.rev b.b_rev in
    b.b_ordered <- l;
    l
  | l -> l

let refresh_order t =
  let order tbl = Array.map (Oid.Table.find tbl) (Oid.sorted_keys tbl) in
  t.wildcard_order <- order t.wildcards;
  t.temporal_order <- order t.temporal;
  t.order_stale <- false

(* The per-occurrence delivery body, over an already-resolved candidate
   list.  [entries = []] means the key had no bucket — the single-event path
   probes the index itself; the batched path resolves each distinct key once
   and replays the list for every occurrence in the group. *)
let deliver_entries t (o : Oodb.Types.obj) (occ : Occurrence.t) entries =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let receive reg =
    if reg.r_seen <> seq then begin
      reg.r_seen <- seq;
      let s = Db.stats t.rt_db in
      s.Oodb.Types.notifications <- s.Oodb.Types.notifications + 1;
      reg.r_on_receive occ
    end
  in
  if t.order_stale then refresh_order t;
  (* Ad-hoc handlers hear every occurrence they are subscribed to,
     whatever its method — they have no leaves to index. *)
  Array.iter
    (fun reg ->
      if (not reg.r_dead) && reg.r_guard () && subscribed t reg o then receive reg)
    t.wildcard_order;
  (* Temporal detectors must observe the clock from every occurrence their
     owner is subscribed to, even when no leaf matches — broadcast feeding
     gave them that for free. *)
  Array.iter
    (fun reg ->
      if (not reg.r_dead) && reg.r_guard () && subscribed t reg o then begin
        receive reg;
        match reg.r_detector with
        | Some d -> Detector.advance d occ.Oodb.Occurrence.at
        | None -> ()
      end)
    t.temporal_order;
  match entries with
  | [] -> ()
  | entries ->
    t.counters.index_hits <- t.counters.index_hits + 1;
    List.iter
      (fun e ->
        let reg = e.e_reg in
        (* a tombstone costs one flag test and is not a candidate *)
        if reg.r_dead then
          t.counters.tombstones_skipped <- t.counters.tombstones_skipped + 1
        else begin
          t.counters.candidates_probed <- t.counters.candidates_probed + 1;
          if reg.r_guard () && subscribed t reg o then begin
            receive reg;
            if
              class_ok t e occ
              && (Oid.Set.is_empty e.e_prim.Expr.p_sources
                 || Oid.Set.mem occ.Oodb.Occurrence.source e.e_prim.Expr.p_sources)
              && List.for_all
                   (fun f -> Expr.filter_matches f occ.Oodb.Occurrence.params)
                   e.e_prim.Expr.p_filters
            then begin
              t.counters.leaves_offered <- t.counters.leaves_offered + 1;
              match reg.r_detector with
              | Some d -> Detector.offer_leaf d e.e_leaf occ
              | None -> ()
            end
          end
        end)
      entries

(* Resolve an occurrence key to its candidate list.  Under a batch scope
   ([with_batch]) the resolution is memoized per distinct key — that is the
   route-key coalescing: within a batch, the discrimination index is probed
   once per distinct key and the candidate list replayed for every later
   occurrence in that key's group.  The memo is stamped against [reg_gen]:
   if delivery itself (an immediate rule's action) (un)registers a
   consumer, the memo is flushed and subsequent keys re-probe, keeping a
   batch observationally identical to the sequential path. *)
let resolve_entries t key =
  match Hashtbl.find_opt t.index key with
  | None -> []
  | Some b -> entries_of_bucket b

let entries_for t key =
  match t.memo with
  | None -> resolve_entries t key
  | Some memo ->
    if t.memo_gen <> t.reg_gen then begin
      Hashtbl.reset memo;
      t.memo_gen <- t.reg_gen
    end;
    (match Hashtbl.find_opt memo key with
    | Some es ->
      t.counters.coalesced_probes <- t.counters.coalesced_probes + 1;
      es
    | None ->
      let es = resolve_entries t key in
      Hashtbl.replace memo key es;
      es)

let deliver_raw t (o : Oodb.Types.obj) (occ : Occurrence.t) =
  if t.memo <> None then
    t.counters.batch_events <- t.counters.batch_events + 1;
  deliver_entries t o occ (entries_for t (key_of_occ occ))

(* Open a route-key-coalescing scope: every delivery [f] performs — however
   it interleaves with method execution and rule actions — shares one
   per-batch key memo.  Delivery points, ordering and detector interleaving
   are untouched; only redundant index probes are skipped.  Reentrant: a
   nested scope (a rule action ingesting a sub-batch) keeps using the
   outer memo. *)
let with_batch t f =
  match t.memo with
  | Some _ -> f ()
  | None ->
    t.memo <- Some (Hashtbl.create 16);
    t.memo_gen <- t.reg_gen;
    Fun.protect ~finally:(fun () -> t.memo <- None) f

(* Immediate-coupled rules execute synchronously inside delivery, so the
   "route" span (and histogram) covers candidate probing plus whatever the
   matched rules do — the cascade nests inside it, which is exactly the
   containment the trace view wants. *)
let deliver t (o : Oodb.Types.obj) (occ : Occurrence.t) =
  if not !Obs.armed then deliver_raw t o occ
  else begin
    let t0 = Obs.Metrics.enter st_route in
    let tok = Obs.Trace.enter "route" occ.Oodb.Occurrence.meth in
    match deliver_raw t o occ with
    | () ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_route t0
    | exception e ->
      Obs.Trace.exit tok;
      Obs.Metrics.exit st_route t0;
      raise e
  end

let deliver_many t batch =
  match batch with
  | [] -> ()
  | [ (o, occ) ] -> deliver t o occ
  | _ ->
    with_batch t (fun () ->
        if not !Obs.armed then
          List.iter (fun (o, occ) -> deliver_raw t o occ) batch
        else begin
          (* one route span + one histogram sample covers the whole vector *)
          let t0 = Obs.Metrics.enter st_route in
          let tok =
            Obs.Trace.enter "route"
              (Printf.sprintf "batch:%d" (List.length batch))
          in
          match List.iter (fun (o, occ) -> deliver_raw t o occ) batch with
          | () ->
            Obs.Trace.exit tok;
            Obs.Metrics.exit st_route t0
          | exception e ->
            Obs.Trace.exit tok;
            Obs.Metrics.exit st_route t0;
            raise e
        end)

type mode = Shared | Exclusive

type manager = {
  m_db : Db.t;
  (* object -> (session id -> mode held) *)
  locks : (int, mode) Hashtbl.t Oid.Table.t;
  mutable next_session : int;
  mutable n_conflicts : int;
}

type t = {
  s_id : int;
  s_name : string;
  s_manager : manager;
  mutable s_active : bool;
  mutable s_held : Oid.Set.t;
  mutable s_undo : (unit -> unit) list; (* newest first *)
}

let manager db =
  { m_db = db; locks = Oid.Table.create 64; next_session = 1; n_conflicts = 0 }

let session ?name m =
  let id = m.next_session in
  m.next_session <- id + 1;
  let s_name =
    match name with Some n -> n | None -> Printf.sprintf "session-%d" id
  in
  { s_id = id; s_name; s_manager = m; s_active = false; s_held = Oid.Set.empty; s_undo = [] }

let name s = s.s_name
let active s = s.s_active
let conflicts m = m.n_conflicts

let require_active s what =
  if not s.s_active then
    raise
      (Errors.Transaction_error
         (Printf.sprintf "%s: session %s has no open transaction" what s.s_name))

let begin_ s =
  if s.s_active then
    raise
      (Errors.Transaction_error
         (Printf.sprintf "session %s already has an open transaction" s.s_name));
  if Transaction.in_progress s.s_manager.m_db then
    raise
      (Errors.Transaction_error
         "cannot open a session transaction while a global transaction is in \
          progress");
  s.s_active <- true;
  s.s_undo <- [];
  s.s_held <- Oid.Set.empty

(* --- locking ---------------------------------------------------------------- *)

let holders m oid =
  match Oid.Table.find_opt m.locks oid with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 4 in
    Oid.Table.replace m.locks oid h;
    h

let conflict m oid others =
  m.n_conflicts <- m.n_conflicts + 1;
  raise (Errors.Lock_conflict (oid, others))

let describe_holders h except =
  Hashtbl.fold
    (fun id mode acc ->
      if id = except then acc
      else
        Printf.sprintf "session-%d:%s" id
          (match mode with Shared -> "S" | Exclusive -> "X")
        :: acc)
    h []
  |> String.concat ", "

let acquire s oid mode =
  require_active s "lock acquisition";
  let m = s.s_manager in
  let h = holders m oid in
  let mine = Hashtbl.find_opt h s.s_id in
  let others_with pred =
    Hashtbl.fold
      (fun id held acc -> acc || (id <> s.s_id && pred held))
      h false
  in
  (match (mode, mine) with
  | Shared, Some _ -> () (* any held mode covers a shared request *)
  | Shared, None ->
    if others_with (fun held -> held = Exclusive) then
      conflict m oid ("exclusively held by " ^ describe_holders h s.s_id)
    else Hashtbl.replace h s.s_id Shared
  | Exclusive, Some Exclusive -> ()
  | Exclusive, (Some Shared | None) ->
    if others_with (fun _ -> true) then
      conflict m oid ("held by " ^ describe_holders h s.s_id)
    else Hashtbl.replace h s.s_id Exclusive);
  s.s_held <- Oid.Set.add oid s.s_held

let release_all s =
  let m = s.s_manager in
  Oid.Set.iter
    (fun oid ->
      match Oid.Table.find_opt m.locks oid with
      | None -> ()
      | Some h ->
        Hashtbl.remove h s.s_id;
        if Hashtbl.length h = 0 then Oid.Table.remove m.locks oid)
    s.s_held;
  s.s_held <- Oid.Set.empty

let locks_held s =
  let m = s.s_manager in
  Oid.Set.elements s.s_held
  |> List.filter_map (fun oid ->
         match Oid.Table.find_opt m.locks oid with
         | None -> None
         | Some h -> (
           match Hashtbl.find_opt h s.s_id with
           | Some Shared -> Some (oid, `Shared)
           | Some Exclusive -> Some (oid, `Exclusive)
           | None -> None))

(* --- transaction end --------------------------------------------------------- *)

let commit s =
  require_active s "commit";
  s.s_active <- false;
  s.s_undo <- [];
  release_all s

let abort s =
  require_active s "abort";
  s.s_active <- false;
  let undo = s.s_undo in
  s.s_undo <- [];
  List.iter (fun f -> f ()) undo;
  release_all s

(* --- data access -------------------------------------------------------------- *)

let get s oid attr =
  require_active s "get";
  acquire s oid Shared;
  Db.get s.s_manager.m_db oid attr

let set s oid attr v =
  require_active s "set";
  acquire s oid Exclusive;
  let db = s.s_manager.m_db in
  let old = Db.get db oid attr in
  s.s_undo <- (fun () -> Db.set db oid attr old) :: s.s_undo;
  Db.set db oid attr v

(* Snapshot an object's attributes so a session abort can restore state the
   method body changed on the receiver. *)
let snapshot_attrs db oid =
  let saved = Db.attrs db oid in
  fun () -> List.iter (fun (attr, v) -> Db.set db oid attr v) saved

let send s oid meth args =
  require_active s "send";
  acquire s oid Exclusive;
  let db = s.s_manager.m_db in
  s.s_undo <- snapshot_attrs db oid :: s.s_undo;
  Db.send db oid meth args

let new_object s ?attrs cls =
  require_active s "new_object";
  let db = s.s_manager.m_db in
  let oid = Db.new_object db ?attrs cls in
  (* born locked: the creator holds it exclusively until commit *)
  let h = holders s.s_manager oid in
  Hashtbl.replace h s.s_id Exclusive;
  s.s_held <- Oid.Set.add oid s.s_held;
  s.s_undo <- (fun () -> Db.delete_object db oid) :: s.s_undo;
  oid

let delete_object s oid =
  require_active s "delete_object";
  acquire s oid Exclusive;
  let db = s.s_manager.m_db in
  (* capture everything needed to resurrect the same identity on abort *)
  let cls = Db.class_of db oid in
  let saved = Db.attrs db oid in
  (* the stored list, newest first as [make_obj] takes it; [Db.consumers_of]
     would hand it over reversed *)
  let consumers = (Heap.find_obj db oid).consumers in
  let resurrect () =
    let info = Heap.class_info db cls in
    let o =
      Heap.make_obj ~id:oid ~cls ~info
        ~store:(Heap.fresh_store db info `Empty)
        ~consumers
    in
    List.iter (fun (attr, v) -> Heap.store_put_raw o attr v) saved;
    Heap.insert_obj db o
  in
  s.s_undo <- resurrect :: s.s_undo;
  Db.delete_object db oid

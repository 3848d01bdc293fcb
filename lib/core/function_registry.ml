open Import

type condition = Db.t -> Detector.instance -> bool
type action = Db.t -> Detector.instance -> unit

type action_entry = {
  a_fn : action;
  (* primitive events this action may generate, for static rule analysis:
     (method, modifier) pairs of the messages it can send *)
  a_may_send : (string * Oodb.Types.modifier) list;
}

type t = {
  conditions : (string, condition) Hashtbl.t;
  actions : (string, action_entry) Hashtbl.t;
}

let register tbl kind name f =
  if Hashtbl.mem tbl name then
    Errors.type_error "%s %S is already registered" kind name;
  Hashtbl.replace tbl name f

let register_condition t name f = register t.conditions "condition" name f

let register_action ?(may_send = []) t name f =
  register t.actions "action" name { a_fn = f; a_may_send = may_send }

let unregister_action t name = Hashtbl.remove t.actions name

let find tbl kind name =
  match Hashtbl.find_opt tbl name with
  | Some f -> f
  | None -> Errors.type_error "unknown %s %S" kind name

let find_condition t name = find t.conditions "condition" name
let find_action t name = (find t.actions "action" name).a_fn
let action_effects t name = (find t.actions "action" name).a_may_send

let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
let condition_names t = names t.conditions
let action_names t = names t.actions

let create () =
  let t = { conditions = Hashtbl.create 16; actions = Hashtbl.create 16 } in
  register_condition t "true" (fun _ _ -> true);
  register_action t "abort" (fun _ _ -> raise (Errors.Rule_abort "rule action: abort"));
  t

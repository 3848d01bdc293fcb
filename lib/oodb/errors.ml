exception No_such_class of string
exception Duplicate_class of string
exception No_such_object of Oid.t
exception Dead_object of Oid.t
exception No_such_method of string * string
exception No_such_attribute of string * string
exception Type_error of string
exception Transaction_error of string
exception Rule_abort of string
exception Parse_error of string

exception Io_error of string
(* Transient storage failure (e.g. an injected fault or a short write);
   callers may retry with bounded backoff (Storage.with_retries). *)

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let () =
  Printexc.register_printer (function
    | No_such_class c -> Some (Printf.sprintf "No_such_class %S" c)
    | Duplicate_class c -> Some (Printf.sprintf "Duplicate_class %S" c)
    | No_such_object o -> Some ("No_such_object " ^ Oid.to_string o)
    | Dead_object o -> Some ("Dead_object " ^ Oid.to_string o)
    | No_such_method (c, m) -> Some (Printf.sprintf "No_such_method %S::%S" c m)
    | No_such_attribute (c, a) ->
      Some (Printf.sprintf "No_such_attribute %S.%S" c a)
    | Type_error m -> Some ("Type_error: " ^ m)
    | Transaction_error m -> Some ("Transaction_error: " ^ m)
    | Rule_abort m -> Some ("Rule_abort: " ^ m)
    | Parse_error m -> Some ("Parse_error: " ^ m)
    | Io_error m -> Some ("Io_error: " ^ m)
    | _ -> None)

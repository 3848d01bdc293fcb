open Import

(* Grammar (whitespace-free):
     e ::= prim(<mod>,<cls>,<meth>,<oid>*...)     cls may be empty
         | and(e,e) | or(e,e) | seq(e,e)
         | any(<m>,e,...)
         | not(e,e,e) | ap(e,e,e) | apstar(e,e,e)
         | per(e,<dt>,<limit-or-dash>,e) | plus(e,<dt>)
   Names are %XX-escaped so that [,()] never appear raw. *)

let name_chars =
  Oodb.Persist.charset (function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
    | _ -> false)

let add_escaped buf s = Oodb.Persist.add_escaped name_chars buf s
let unescape t = Oodb.Persist.unescape_sub t 0 (String.length t)

(* Values inside a codec field: their Persist encodings, escaped again so
   the field separators never appear raw. *)
let add_param buf v = Oodb.Persist.add_value_escaped name_chars buf v

let rec add_params buf = function
  | [] -> ()
  | [ v ] -> add_param buf v
  | v :: rest ->
    add_param buf v;
    Buffer.add_char buf ';';
    add_params buf rest

(* Written straight into one buffer: a rule's creation encodes its event,
   so this sits on the rule-management path. *)
let rec add_expr buf (e : Expr.t) =
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int n = str (string_of_int n) in
  let args name es =
    str name;
    chr '(';
    List.iteri
      (fun i e ->
        if i > 0 then chr ',';
        add_expr buf e)
      es;
    chr ')'
  in
  match e with
  | Prim p ->
    str "prim(";
    str (Occurrence.modifier_to_string p.p_modifier);
    chr ',';
    (match p.p_class with Some c -> add_escaped buf c | None -> ());
    chr ',';
    add_escaped buf p.p_meth;
    chr ',';
    List.iteri
      (fun i o ->
        if i > 0 then chr ';';
        int (Oid.to_int o))
      (Oid.Set.elements p.p_sources);
    chr ',';
    List.iteri
      (fun i (f : Expr.param_filter) ->
        if i > 0 then chr ';';
        int f.pf_index;
        chr '~';
        str (Expr.cmp_to_string f.pf_cmp);
        chr '~';
        add_param buf f.pf_value)
      p.p_filters;
    chr ')'
  | And (a, b) -> args "and" [ a; b ]
  | Or (a, b) -> args "or" [ a; b ]
  | Seq (a, b) -> args "seq" [ a; b ]
  | Any (m, es) ->
    str "any(";
    int m;
    chr ',';
    List.iteri
      (fun i e ->
        if i > 0 then chr ',';
        add_expr buf e)
      es;
    chr ')'
  | Not (a, b, c) -> args "not" [ a; b; c ]
  | Aperiodic (a, b, c) -> args "ap" [ a; b; c ]
  | Aperiodic_star (a, b, c) -> args "apstar" [ a; b; c ]
  | Periodic (a, dt, limit, b) ->
    str "per(";
    add_expr buf a;
    chr ',';
    int dt;
    chr ',';
    (match limit with Some l -> int l | None -> chr '-');
    chr ',';
    add_expr buf b;
    chr ')'
  | Plus (a, dt) ->
    str "plus(";
    add_expr buf a;
    chr ',';
    int dt;
    chr ')'

let encode e =
  let buf = Buffer.create 64 in
  add_expr buf e;
  Buffer.contents buf

exception Bad of string

let decode input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let expect c =
    match peek () with
    | Some x when x = c -> incr pos
    | _ -> raise (Bad (Printf.sprintf "expected '%c' at %d" c !pos))
  in
  (* a bare token: up to the next ',' or ')' *)
  let token () =
    let start = !pos in
    while !pos < n && input.[!pos] <> ',' && input.[!pos] <> ')' do
      incr pos
    done;
    String.sub input start (!pos - start)
  in
  let head () =
    let start = !pos in
    while !pos < n && input.[!pos] <> '(' do
      incr pos
    done;
    String.sub input start (!pos - start)
  in
  let int_token what =
    let t = token () in
    match int_of_string_opt t with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "bad %s: %S" what t))
  in
  let rec expr () =
    let h = head () in
    expect '(';
    let e =
      match h with
      | "prim" ->
        let m = Occurrence.modifier_of_string (token ()) in
        expect ',';
        let cls = token () in
        expect ',';
        let meth = unescape (token ()) in
        expect ',';
        let sources_tok = token () in
        let sources =
          if sources_tok = "" then []
          else
            String.split_on_char ';' sources_tok
            |> List.map (fun s ->
                 match int_of_string_opt s with
                 | Some v -> Oid.of_int v
                 | None -> raise (Bad ("bad oid " ^ s)))
        in
        (* optional fifth field: parameter filters (older encodings have
           only four fields) *)
        let filters =
          match peek () with
          | Some ',' ->
            expect ',';
            let tok = token () in
            if tok = "" then []
            else
              String.split_on_char ';' tok
              |> List.map (fun part ->
                   match String.split_on_char '~' part with
                   | [ idx; op; v ] -> (
                     match int_of_string_opt idx with
                     | Some pf_index ->
                       {
                         Expr.pf_index;
                         pf_cmp = Expr.cmp_of_string op;
                         pf_value = Oodb.Persist.decode_value (unescape v);
                       }
                     | None -> raise (Bad ("bad filter index " ^ idx)))
                   | _ -> raise (Bad ("bad filter " ^ part)))
          | _ -> []
        in
        Expr.prim
          ?cls:(if cls = "" then None else Some (unescape cls))
          ~sources ~filters m meth
      | "and" | "or" | "seq" ->
        let a = expr () in
        expect ',';
        let b = expr () in
        let op = match h with
          | "and" -> Expr.conj
          | "or" -> Expr.disj
          | _ -> Expr.seq
        in
        op a b
      | "any" ->
        let m = int_token "count" in
        let items = ref [] in
        let rec more () =
          match peek () with
          | Some ',' ->
            incr pos;
            items := expr () :: !items;
            more ()
          | _ -> ()
        in
        more ();
        Expr.any m (List.rev !items)
      | "not" | "ap" | "apstar" ->
        let a = expr () in
        expect ',';
        let b = expr () in
        expect ',';
        let c = expr () in
        (match h with
        | "not" -> Expr.not_between a b c
        | "ap" -> Expr.aperiodic a b c
        | _ -> Expr.aperiodic_star a b c)
      | "per" ->
        let a = expr () in
        expect ',';
        let dt = int_token "period" in
        expect ',';
        let limit_tok = token () in
        let limit =
          if limit_tok = "-" then None
          else
            match int_of_string_opt limit_tok with
            | Some v -> Some v
            | None -> raise (Bad ("bad limit " ^ limit_tok))
        in
        expect ',';
        let b = expr () in
        Expr.periodic ?limit a dt b
      | "plus" ->
        let a = expr () in
        expect ',';
        let dt = int_token "delay" in
        Expr.plus a dt
      | other -> raise (Bad ("unknown operator " ^ other))
    in
    expect ')';
    e
  in
  try
    let e = expr () in
    if !pos <> n then raise (Bad "trailing garbage");
    e
  with Bad msg -> raise (Errors.Parse_error (Printf.sprintf "expr %S: %s" input msg))

(* --- occurrences and detected instances ----------------------------------

   Dead-letter objects persist the composite-event instance that triggered
   the failed firing so it can be replayed after a reload.  Same escaping
   discipline as expressions: every free-form field is %XX-escaped, so
   [,()|] never appear raw and the frames split on single characters.

     occ  ::= occ(<mod>,<cls>,<meth>,<oid>,<at>,<param>;<param>...)
     inst ::= inst(<t_start>,<t_end>,<occ>|<occ>...)                        *)

let add_occurrence buf (o : Occurrence.t) =
  Buffer.add_string buf "occ(";
  Buffer.add_string buf (Occurrence.modifier_to_string o.modifier);
  Buffer.add_char buf ',';
  add_escaped buf o.source_class;
  Buffer.add_char buf ',';
  add_escaped buf o.meth;
  Buffer.add_char buf ',';
  Oodb.Persist.add_int buf (Oid.to_int o.source);
  Buffer.add_char buf ',';
  Oodb.Persist.add_int buf o.at;
  Buffer.add_char buf ',';
  add_params buf o.params;
  Buffer.add_char buf ')'

let encode_occurrence o =
  let buf = Buffer.create 64 in
  add_occurrence buf o;
  Buffer.contents buf

let occ_error input msg =
  raise (Errors.Parse_error (Printf.sprintf "occurrence %S: %s" input msg))

let decode_occurrence input =
  let n = String.length input in
  let inner =
    if n >= 5 && String.sub input 0 4 = "occ(" && input.[n - 1] = ')' then
      String.sub input 4 (n - 5)
    else occ_error input "missing occ(...) frame"
  in
  match String.split_on_char ',' inner with
  | [ m; cls; meth; source; at; params ] ->
    let int_field what s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> occ_error input (Printf.sprintf "bad %s: %S" what s)
    in
    Occurrence.make
      ~modifier:(Occurrence.modifier_of_string m)
      ~source_class:(unescape cls) ~meth:(unescape meth)
      ~source:(Oid.of_int (int_field "oid" source))
      ~at:(int_field "timestamp" at)
      ~params:
        (if params = "" then []
         else
           String.split_on_char ';' params
           |> List.map (fun p -> Oodb.Persist.decode_value (unescape p)))
  | _ -> occ_error input "expected 6 fields"

(* --- wire events -----------------------------------------------------------

   The network layer ships send requests — (target, method, params) triples,
   the input of [Db.send]/[System.ingest] — in the same escaped textual
   form, so the wire protocol's payload codec is this module rather than a
   second serializer.

     ev ::= ev(<oid>,<meth>,<param>;<param>...)                              *)

let add_event buf ((oid, meth, params) : Oid.t * string * Oodb.Value.t list)
    =
  Buffer.add_string buf "ev(";
  Oodb.Persist.add_int buf (Oid.to_int oid);
  Buffer.add_char buf ',';
  add_escaped buf meth;
  Buffer.add_char buf ',';
  add_params buf params;
  Buffer.add_char buf ')'

let encode_event e =
  let buf = Buffer.create 48 in
  add_event buf e;
  Buffer.contents buf

(* The first [c] in [s] from [pos] on, or [stop] when none comes before
   it. *)
let[@inline] find s c pos stop =
  let i = ref pos in
  while !i < stop && String.unsafe_get s !i <> c do
    incr i
  done;
  !i

let event_error s pos len msg =
  raise
    (Errors.Parse_error
       (Printf.sprintf "event %S: %s" (String.sub s pos len) msg))

(* Whether the [stop - pos] bytes of [s] from [pos] begin with [p]. *)
let[@inline] has_prefix s pos stop p =
  let n = String.length p in
  stop - pos >= n
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get s (pos + !k) = String.unsafe_get p !k do
    incr k
  done;
  !k = n

(* [f:] escaped, the prefix of every float parameter. *)
let float_tag = Oodb.Persist.escape_with name_chars "f:"

(* A float in the shape the encoder writes is read in place; any other
   parameter is unescaped and decoded as a value. *)
let event_param s ev_pos ev_len pos stop =
  let fast =
    if has_prefix s pos stop float_tag then
      let at = pos + String.length float_tag in
      Oodb.Persist.hex_float_sub ~escaped:true s at (stop - at)
    else None
  in
  match fast with
  | Some f -> Oodb.Value.Float f
  | None ->
    let text =
      try Oodb.Persist.unescape_sub s pos (stop - pos)
      with Errors.Parse_error msg -> event_error s ev_pos ev_len msg
    in
    Oodb.Persist.decode_value text

(* In order, each decoded before the next: an event has few parameters.
   [sep] is the end of the first, the first [;] or [stop]. *)
let rec event_params s ev_pos ev_len pos sep stop =
  let v = event_param s ev_pos ev_len pos sep in
  if sep = stop then [ v ]
  else
    v
    :: event_params s ev_pos ev_len (sep + 1) (find s ';' (sep + 1) stop) stop

(* The first [;] from [pos] on (or [stop]), or -1 when a [,] comes
   anywhere before [stop]: the parameters must not hold a fourth field. *)
let first_param_end s pos stop =
  let i = ref pos and semi = ref stop in
  while !i < stop do
    match String.unsafe_get s !i with
    | ',' ->
      semi := -1;
      i := stop
    | ';' when !semi = stop ->
      semi := !i;
      incr i
    | _ -> incr i
  done;
  !semi

(* One pass over the slice: the field separators are found in place and
   each field is decoded where it lies. *)
let decode_event_sub ?(meth = "") s pos len =
  if
    not
      (len >= 4
      && has_prefix s pos (pos + len) "ev("
      && String.unsafe_get s (pos + len - 1) = ')')
  then event_error s pos len "missing ev(...) frame";
  let stop = pos + len - 1 in
  let c1 = find s ',' (pos + 3) stop in
  let c2 = if c1 = stop then stop else find s ',' (c1 + 1) stop in
  let sep = if c2 = stop then -1 else first_param_end s (c2 + 1) stop in
  if sep < 0 then event_error s pos len "expected 3 fields";
  let oid =
    match Oodb.Persist.int_sub s (pos + 3) (c1 - pos - 3) with
    | Some v -> Oid.of_int v
    | None ->
      event_error s pos len
        (Printf.sprintf "bad oid: %S" (String.sub s (pos + 3) (c1 - pos - 3)))
  in
  let meth =
    let m_pos = c1 + 1 and m_len = c2 - c1 - 1 in
    (* the previous event's name, when these bytes spell it unescaped *)
    if
      m_len = String.length meth
      && has_prefix s m_pos c2 meth
      && find s '%' m_pos c2 = c2
    then meth
    else
      try Oodb.Persist.unescape_sub s m_pos m_len
      with Errors.Parse_error msg -> event_error s pos len msg
  in
  let params =
    if c2 + 1 = stop then [] else event_params s pos len (c2 + 1) sep stop
  in
  (oid, meth, params)

let decode_event s = decode_event_sub s 0 (String.length s)

let encode_instance (i : Detector.instance) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "inst(";
  Oodb.Persist.add_int buf i.t_start;
  Buffer.add_char buf ',';
  Oodb.Persist.add_int buf i.t_end;
  Buffer.add_char buf ',';
  List.iteri
    (fun k o ->
      if k > 0 then Buffer.add_char buf '|';
      add_occurrence buf o)
    i.constituents;
  Buffer.add_char buf ')';
  Buffer.contents buf

let decode_instance input =
  let fail msg =
    raise (Errors.Parse_error (Printf.sprintf "instance %S: %s" input msg))
  in
  let n = String.length input in
  let inner =
    if n >= 7 && String.sub input 0 5 = "inst(" && input.[n - 1] = ')' then
      String.sub input 5 (n - 6)
    else fail "missing inst(...) frame"
  in
  let int_field what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad %s: %S" what s)
  in
  match String.index_opt inner ',' with
  | None -> fail "missing t_start"
  | Some i1 -> (
    match String.index_from_opt inner (i1 + 1) ',' with
    | None -> fail "missing t_end"
    | Some i2 ->
      let t_start = int_field "t_start" (String.sub inner 0 i1) in
      let t_end =
        int_field "t_end" (String.sub inner (i1 + 1) (i2 - i1 - 1))
      in
      let rest = String.sub inner (i2 + 1) (String.length inner - i2 - 1) in
      let constituents =
        if rest = "" then []
        else String.split_on_char '|' rest |> List.map decode_occurrence
      in
      { Detector.constituents; t_start; t_end })

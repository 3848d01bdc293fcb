open Types

let magic = "SENTINELDB 1"

(* --- escapes and integer tokens ------------------------------------------ *)

(* A set of bytes that travel unescaped, as a 256-byte membership table;
   [hex_safe] when it holds every lowercase hex digit, so that a float's
   fraction digits need no escaping. *)
type charset = { table : string; hex_safe : bool }

let charset safe =
  {
    table =
      String.init 256 (fun i -> if safe (Char.chr i) then '\001' else '\000');
    hex_safe = String.for_all safe "0123456789abcdef";
  }

let value_chars =
  charset (function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
    | '.' | '-' | '_' | '/' | '@' | '!' | '?' | '+' | '*' | '=' | '<' | '>' ->
      true
    | _ -> false)

let[@inline] is_safe set c =
  String.unsafe_get set.table (Char.code c) <> '\000'

let all_safe set s =
  let i = ref 0 in
  while !i < String.length s && is_safe set (String.unsafe_get s !i) do
    incr i
  done;
  !i = String.length s

let hex_upper = "0123456789ABCDEF"

let add_escape buf c =
  let code = Char.code c in
  Buffer.add_char buf '%';
  Buffer.add_char buf (String.unsafe_get hex_upper (code lsr 4));
  Buffer.add_char buf (String.unsafe_get hex_upper (code land 0xF))

(* Runs of safe bytes are copied whole, each other byte written as its
   escape. *)
let add_escaped set buf s =
  let n = String.length s and run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if not (is_safe set c) then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      add_escape buf c;
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

let escape_with set s =
  if all_safe set s then s
  else begin
    let buf = Buffer.create (String.length s * 3) in
    add_escaped set buf s;
    Buffer.contents buf
  end

let parse_error fmt = Printf.ksprintf (fun s -> raise (Errors.Parse_error s)) fmt

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'A' .. 'F' -> Char.code c - 55
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

let unescape_sub s pos len =
  let stop = pos + len in
  (* count the escapes, checking each, so the result is allocated once at
     its exact size *)
  let escapes = ref 0 and i = ref pos in
  while !i < stop do
    if String.unsafe_get s !i <> '%' then incr i
    else if !i + 2 >= stop then parse_error "truncated escape"
    else if hex_digit s.[!i + 1] < 0 || hex_digit s.[!i + 2] < 0 then
      parse_error "bad escape %%%s" (String.sub s (!i + 1) 2)
    else begin
      incr escapes;
      i := !i + 3
    end
  done;
  if !escapes = 0 then String.sub s pos len
  else begin
    let b = Bytes.create (len - (2 * !escapes)) in
    let i = ref pos and j = ref 0 in
    while !i < stop do
      let c = String.unsafe_get s !i in
      if c <> '%' then begin
        Bytes.unsafe_set b !j c;
        incr i
      end
      else begin
        Bytes.unsafe_set b !j
          (Char.unsafe_chr
             ((hex_digit s.[!i + 1] lsl 4) lor hex_digit s.[!i + 2]));
        i := !i + 3
      end;
      incr j
    done;
    Bytes.unsafe_to_string b
  end

(* Decimal digits are read in place; anything else — a sign, a radix
   prefix, underscores, overflow — goes to [int_of_string], which defines
   what an integer token accepts. *)
let int_sub s pos len =
  let neg = len > 0 && s.[pos] = '-' in
  let first = if neg then pos + 1 else pos in
  let digits = pos + len - first in
  let acc = ref 0 and i = ref first in
  while
    !i < pos + len
    && match s.[!i] with '0' .. '9' -> true | _ -> false
  do
    acc := (!acc * 10) + Char.code s.[!i] - 48;
    incr i
  done;
  if digits >= 1 && digits <= 18 && !i = pos + len then
    Some (if neg then - !acc else !acc)
  else int_of_string_opt (String.sub s pos len)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* --- value encoding ------------------------------------------------------
   Single-token grammar (no whitespace):
     n | b:t | b:f | i:<int> | f:<hex float> | o:<int>
     s:<escaped>          %XX-escaping for bytes outside the safe set
     l(<enc>,<enc>,...)   recursive; l() is the empty list                  *)

(* --- hex floats --------------------------------------------------------
   What [Printf "%h"] prints, built from the float's bits: an optional [-],
   then [nan], [infinity], or [0x<lead>[.<fraction>]p<sign><exponent>]
   with the fraction's trailing zeros dropped — [0x1] and the biased
   exponent less 1023 for a normal number, [0x0] and [p-1022] for a
   subnormal, [0x0p+0] for zero. *)

let hex_lower = "0123456789abcdef"

(* The two hex digits of every byte value, at [2 * byte]. *)
let hex_pairs =
  String.init 512 (fun i ->
      hex_lower.[if i land 1 = 0 then i lsr 5 else (i lsr 1) land 0xF])

let every_char = charset (fun _ -> true)

(* Store [c] at [i] of [b], or its [%XX] escape when it is outside the set;
   the next index. *)
let[@inline] put set b i c =
  if is_safe set c then begin
    Bytes.unsafe_set b i c;
    i + 1
  end
  else begin
    let code = Char.code c in
    Bytes.unsafe_set b i '%';
    Bytes.unsafe_set b (i + 1) (String.unsafe_get hex_upper (code lsr 4));
    Bytes.unsafe_set b (i + 2) (String.unsafe_get hex_upper (code land 0xF));
    i + 3
  end

let[@inline] digit n = Char.unsafe_chr (48 + n)

(* [f:] and the longest float, [-0x1.<13 digits>p-1022], every byte
   escaped. *)
let max_float_value = 3 * (2 + 24)

(* The fraction's 13 hex digits without their trailing zeros, written from
   [i] of [b], two per step from the pair table; returns where they end.
   [frac] is not 0. *)
let write_fraction b i frac =
  let v = frac lsl 4 in
  for k = 0 to 6 do
    let byte = (v lsr (48 - (8 * k))) land 0xFF in
    Bytes.unsafe_set b (i + (2 * k)) (String.unsafe_get hex_pairs (2 * byte));
    Bytes.unsafe_set b
      (i + (2 * k) + 1)
      (String.unsafe_get hex_pairs ((2 * byte) + 1))
  done;
  let j = ref (i + 14) in
  while Bytes.unsafe_get b (!j - 1) = '0' do
    decr j
  done;
  !j

(* Write the float's [%h] text into [b] from [i], escaped with [set], which
   holds every hex digit; returns where it ends.  Built in a small byte
   array so that it reaches a buffer in one copy. *)
let write_hex_float set b i f =
  let bits = Int64.bits_of_float f in
  let i = if Int64.compare bits 0L < 0 then put set b i '-' else i in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let frac = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  if biased = 0x7FF then begin
    let word = if frac = 0 then "infinity" else "nan" in
    let i = ref i in
    String.iter (fun c -> i := put set b !i c) word;
    !i
  end
  else begin
    let i = put set b i '0' in
    let i = put set b i 'x' in
    let i = put set b i (if biased = 0 then '0' else '1') in
    let i =
      if frac <> 0 then write_fraction b (put set b i '.') frac else i
    in
    let e =
      if biased > 0 then biased - 1023 else if frac = 0 then 0 else -1022
    in
    let i = put set b i 'p' in
    let i = put set b i (if e < 0 then '-' else '+') in
    let e = abs e in
    let i = if e >= 1000 then put set b i (digit (e / 1000)) else i in
    let i = if e >= 100 then put set b i (digit (e / 100 mod 10)) else i in
    let i = if e >= 10 then put set b i (digit (e / 10 mod 10)) else i in
    put set b i (digit (e mod 10))
  end

let add_hex_float buf f =
  let b = Bytes.create max_float_value in
  Buffer.add_subbytes buf b 0 (write_hex_float every_char b 0 f)

(* [f:] and the float, escaped with [set], in one copy. *)
let add_float_value set buf f =
  let b = Bytes.create max_float_value in
  let i = put set b 0 'f' in
  let i = put set b i ':' in
  Buffer.add_subbytes buf b 0 (write_hex_float set b i f)

exception Not_canonical

(* Each byte's value as a lowercase hex digit, 16 when it is not one: a
   table, because hex digits mix [0-9] and [a-f] at random and a branch on
   the range would be mispredicted every few digits. *)
let hex_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | _ -> '\016')

(* The lowercase hex digit at [i] of [s], or 16 (also past [stop]). *)
let[@inline] hex_at s stop i =
  if i >= stop then 16
  else
    Char.code (String.unsafe_get hex_values (Char.code (String.unsafe_get s i)))

(* The shape [add_hex_float] writes, read back into its bits; with
   [~escaped] the exponent's [+] may also arrive as [%2B].  Raises
   [Not_canonical] on any other text, and on a value the shape does not
   give exactly (a subnormal written with a normal's lead, an exponent out
   of range): [float_of_string] decides those. *)
let canonical_float ~escaped s pos len =
  let stop = pos + len in
  let neg = len > 0 && String.unsafe_get s pos = '-' in
  let i = if neg then pos + 1 else pos in
  (* the shortest is [0x0p+0] *)
  if
    stop - i < 6
    || String.unsafe_get s i <> '0'
    || String.unsafe_get s (i + 1) <> 'x'
  then raise_notrace Not_canonical;
  let lead = String.unsafe_get s (i + 2) in
  if lead <> '0' && lead <> '1' then raise_notrace Not_canonical;
  let i = ref (i + 3) and frac = ref 0 and digits = ref 0 in
  if String.unsafe_get s !i = '.' then begin
    incr i;
    let first = !i in
    let d = ref (hex_at s stop !i) in
    while !d < 16 do
      frac := (!frac lsl 4) lor !d;
      incr i;
      d := hex_at s stop !i
    done;
    digits := !i - first;
    if !digits = 0 || !digits > 13 then raise_notrace Not_canonical
  end;
  (* [p], the sign, then 1 to 4 decimal digits to the end *)
  if stop - !i < 3 || String.unsafe_get s !i <> 'p' then
    raise_notrace Not_canonical;
  let neg_exp =
    match String.unsafe_get s (!i + 1) with
    | '+' ->
      i := !i + 2;
      false
    | '-' ->
      i := !i + 2;
      true
    | '%'
      when escaped
           && stop - !i >= 5
           && String.unsafe_get s (!i + 2) = '2'
           && String.unsafe_get s (!i + 3) = 'B' ->
      i := !i + 4;
      false
    | _ -> raise_notrace Not_canonical
  in
  if stop - !i > 4 then raise_notrace Not_canonical;
  let e = ref 0 in
  while !i < stop do
    (match String.unsafe_get s !i with
    | '0' .. '9' as c -> e := (!e * 10) + Char.code c - 48
    | _ -> raise_notrace Not_canonical);
    incr i
  done;
  let e = if neg_exp then - !e else !e in
  let frac = !frac lsl (4 * (13 - !digits)) in
  let biased =
    if lead = '1' && e >= -1022 && e <= 1023 then e + 1023
    else if lead = '0' && ((frac = 0 && e = 0) || (frac <> 0 && e = -1022))
    then 0
    else raise_notrace Not_canonical
  in
  let bits =
    Int64.logor (Int64.shift_left (Int64.of_int biased) 52) (Int64.of_int frac)
  in
  Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits)

let hex_float_sub ~escaped s pos len =
  match canonical_float ~escaped s pos len with
  | f -> Some f
  | exception Not_canonical -> None

(* Canonical tokens are read in place; anything else — decimal, uppercase,
   a [+] sign, too many digits, [nan], [infinity] — goes to
   [float_of_string], which defines what a float token accepts. *)
let float_sub s pos len =
  match hex_float_sub ~escaped:false s pos len with
  | Some _ as f -> f
  | None -> float_of_string_opt (String.sub s pos len)

let rec add_value buf = function
  | Value.Null -> Buffer.add_char buf 'n'
  | Value.Bool true -> Buffer.add_string buf "b:t"
  | Value.Bool false -> Buffer.add_string buf "b:f"
  | Value.Int n ->
    Buffer.add_string buf "i:";
    add_int buf n
  | Value.Float f -> add_float_value every_char buf f
  | Value.Str s ->
    Buffer.add_string buf "s:";
    add_escaped value_chars buf s
  | Value.Obj o ->
    Buffer.add_string buf "o:";
    add_int buf (Oid.to_int o)
  | Value.List vs ->
    Buffer.add_string buf "l(";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_value buf v)
      vs;
    Buffer.add_char buf ')'

let encode_value v =
  let buf = Buffer.create 24 in
  add_value buf v;
  Buffer.contents buf

(* A float — the hot case on the wire — is written escaped as it goes;
   anything else is encoded, then escaped. *)
let add_value_escaped set buf = function
  | Value.Float f when set.hex_safe -> add_float_value set buf f
  | v -> add_escaped set buf (encode_value v)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let next_is c ch = c.pos < String.length c.s && c.s.[c.pos] = ch

let expect c ch =
  if next_is c ch then c.pos <- c.pos + 1
  else raise (Bad (Printf.sprintf "expected %c at %d" ch c.pos))

(* Advance to the next [,] or [)] (or the end); returns where the token
   started. *)
let token c =
  let start = c.pos and i = ref c.pos in
  while
    !i < String.length c.s
    &&
    match String.unsafe_get c.s !i with ',' | ')' -> false | _ -> true
  do
    incr i
  done;
  c.pos <- !i;
  start

let token_text c start = String.sub c.s start (c.pos - start)

let rec value c =
  if c.pos >= String.length c.s then raise (Bad "empty value");
  let tag = c.s.[c.pos] in
  match tag with
  | 'n' ->
    c.pos <- c.pos + 1;
    Value.Null
  | 'b' ->
    c.pos <- c.pos + 1;
    expect c ':';
    if not (next_is c 't' || next_is c 'f') then raise (Bad "bad bool");
    c.pos <- c.pos + 1;
    Value.Bool (c.s.[c.pos - 1] = 't')
  | 'i' | 'o' -> (
    c.pos <- c.pos + 1;
    expect c ':';
    let start = token c in
    match int_sub c.s start (c.pos - start) with
    | Some v -> if tag = 'i' then Value.Int v else Value.Obj (Oid.of_int v)
    | None ->
      raise
        (Bad
           ((if tag = 'i' then "bad int " else "bad oid ") ^ token_text c start)))
  | 'f' -> (
    c.pos <- c.pos + 1;
    expect c ':';
    let start = token c in
    match float_sub c.s start (c.pos - start) with
    | Some v -> Value.Float v
    | None -> raise (Bad ("bad float " ^ token_text c start)))
  | 's' -> (
    c.pos <- c.pos + 1;
    expect c ':';
    let start = token c in
    try Value.Str (unescape_sub c.s start (c.pos - start))
    with Errors.Parse_error msg -> raise (Bad msg))
  | 'l' ->
    c.pos <- c.pos + 1;
    expect c '(';
    if next_is c ')' then begin
      c.pos <- c.pos + 1;
      Value.List []
    end
    else begin
      let rec elems acc =
        let acc = value c :: acc in
        if next_is c ',' then begin
          c.pos <- c.pos + 1;
          elems acc
        end
        else if next_is c ')' then begin
          c.pos <- c.pos + 1;
          List.rev acc
        end
        else raise (Bad "unterminated list")
      in
      Value.List (elems [])
    end
  | ch -> raise (Bad (Printf.sprintf "unexpected %c" ch))

let decode_value s =
  let c = { s; pos = 0 } in
  try
    let v = value c in
    if c.pos <> String.length c.s then raise (Bad "trailing garbage");
    v
  with Bad msg -> parse_error "value %S: %s" s msg

(* --- writing ------------------------------------------------------------ *)

let oid_list oids =
  String.concat " " (List.map (fun c -> string_of_int (Oid.to_int c)) oids)

let emit_obj emit o =
  emit (Printf.sprintf "obj %d %s\n" (Oid.to_int o.id) o.cls);
  List.iter
    (fun (k, v) -> emit (Printf.sprintf "a %s %s\n" k (encode_value v)))
    (Heap.sorted_attrs o);
  if o.consumers <> [] then emit (Printf.sprintf "c %s\n" (oid_list o.consumers));
  emit "end\n"

let emit_classcons emit db =
  Hashtbl.fold (fun cls cs acc -> (cls, cs) :: acc) db.class_consumers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (cls, cs) ->
         if cs <> [] then
           emit (Printf.sprintf "classcons %s %s\n" cls (oid_list cs)))

let emit_indexes emit db =
  Hashtbl.fold (fun key ix acc -> (key, ix) :: acc) db.indexes []
  |> List.sort compare
  |> List.iter (fun ((cls, attr), ix) ->
         let kind =
           match ix.ix_backing with Ix_hash _ -> "hash" | Ix_ordered _ -> "ordered"
         in
         emit (Printf.sprintf "index %s %s %s\n" cls attr kind))

let write db emit =
  let pr fmt = Printf.ksprintf emit fmt in
  pr "%s\n" magic;
  pr "clock %d\n" db.now;
  pr "nextoid %d\n" db.next_oid;
  if db.wal_applied_seq > 0 then pr "walseq %d\n" db.wal_applied_seq;
  Array.iter
    (fun oid -> emit_obj emit (Oid.Table.find db.objects oid))
    (Oid.sorted_keys db.objects);
  emit_classcons emit db;
  emit_indexes emit db;
  pr "EOF\n"

let to_channel db oc = write db (output_string oc)

let to_string db =
  let buf = Buffer.create 4096 in
  write db (Buffer.add_string buf);
  Buffer.contents buf

(* Temp names carry the pid and a process-local counter so two stores saving
   to the same path — from this process or another — cannot clobber each
   other's in-flight file. *)
let tmp_counter = ref 0

let tmp_name path =
  incr tmp_counter;
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_counter

(* Write [emit_body]'s output crash-atomically to [path]: fsynced temp file,
   atomic rename, directory fsync.  Returns the bytes written. *)
let save_atomic storage db path emit_body =
  let tmp = tmp_name path in
  let bytes = ref 0 in
  let w = storage.Storage.open_writer ~append:false tmp in
  let emit s =
    bytes := !bytes + String.length s;
    w.Storage.write s
  in
  (try
     emit_body emit;
     w.Storage.fsync ();
     db.stats.wal_fsyncs <- db.stats.wal_fsyncs + 1;
     w.Storage.close ()
   with e ->
     w.Storage.close ();
     (try storage.Storage.unlink tmp with _ -> ());
     raise e);
  (* The snapshot becomes visible only whole: fsynced temp file, atomic
     rename, then directory fsync so the rename itself is durable. *)
  storage.Storage.rename tmp path;
  storage.Storage.fsync_dir path;
  !bytes

let save ?(storage = Storage.unix) db path =
  let bytes = save_atomic storage db path (write db) in
  db.stats.snapshot_bytes <- bytes;
  (* The snapshot is the new incremental-checkpoint baseline: it covers
     every applied WAL batch, and nothing is dirty relative to it. *)
  db.snapshot_seq <- db.wal_applied_seq;
  Heap.clear_dirty db

(* --- reading ------------------------------------------------------------ *)

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let read db read_line =
  if Transaction.in_progress db then
    raise (Errors.Transaction_error "cannot load during a transaction");
  if Oid.Table.length db.objects > 0 then
    raise (Errors.Transaction_error "cannot load into a non-empty database");
  let lineno = ref 0 in
  let next_line () =
    match read_line () with
    | Some l ->
      incr lineno;
      Some l
    | None -> None
  in
  let fail fmt = Printf.ksprintf (fun m -> parse_error "line %d: %s" !lineno m) fmt in
  (match next_line () with
  | Some l when l = magic -> ()
  | _ -> fail "bad magic");
  let parse_oid w =
    match int_of_string_opt w with
    | Some n -> Oid.of_int n
    | None -> fail "bad oid %s" w
  in
  let pending_indexes = ref [] in
  let read_object oid cls =
    if not (Db.has_class db cls) then raise (Errors.No_such_class cls);
    let info = Heap.class_info db cls in
    (* `Empty seed: an attribute the snapshot does not carry (it predates an
       add_attribute) loads as absent, not as the current default *)
    let o =
      Heap.make_obj ~id:oid ~cls ~info
        ~store:(Heap.fresh_store info `Empty)
        ~consumers:[]
    in
    let rec body () =
      match next_line () with
      | None -> fail "unterminated object"
      | Some line -> (
        match split_words line with
        | [ "end" ] -> ()
        | "a" :: name :: [ enc ] ->
          (* loose: snapshot attributes the current schema no longer
             declares are dropped *)
          Heap.store_put_loose o name (decode_value enc);
          body ()
        | "c" :: oids ->
          o.consumers <- List.map parse_oid oids;
          body ()
        | _ -> fail "bad object body: %s" line)
    in
    body ();
    Heap.insert_obj db o
  in
  let rec toplevel () =
    match next_line () with
    | None -> fail "missing EOF marker"
    | Some line -> (
      match split_words line with
      | [ "EOF" ] -> ()
      | [ "clock"; v ] ->
        db.now <- (match int_of_string_opt v with Some n -> n | None -> fail "bad clock");
        toplevel ()
      | [ "nextoid"; v ] ->
        db.next_oid <-
          (match int_of_string_opt v with Some n -> n | None -> fail "bad nextoid");
        toplevel ()
      | [ "walseq"; v ] ->
        db.wal_applied_seq <-
          (match int_of_string_opt v with Some n -> n | None -> fail "bad walseq");
        toplevel ()
      | [ "obj"; oid; cls ] ->
        read_object (parse_oid oid) cls;
        toplevel ()
      | "classcons" :: cls :: oids ->
        if not (Db.has_class db cls) then raise (Errors.No_such_class cls);
        Heap.set_class_consumers db cls (List.map parse_oid oids);
        toplevel ()
      | [ "index"; cls; attr ] ->
        pending_indexes := (cls, attr, `Hash) :: !pending_indexes;
        toplevel ()
      | [ "index"; cls; attr; kind ] ->
        let kind =
          match kind with
          | "hash" -> `Hash
          | "ordered" -> `Ordered
          | other -> fail "unknown index kind %s" other
        in
        pending_indexes := (cls, attr, kind) :: !pending_indexes;
        toplevel ()
      | [] -> toplevel ()
      | _ -> fail "bad line: %s" line)
  in
  toplevel ();
  List.iter
    (fun (cls, attr, kind) -> Db.create_index db ~kind ~cls ~attr ())
    !pending_indexes;
  (* The loaded snapshot is the incremental-checkpoint baseline: everything
     it carries is clean relative to it. *)
  db.snapshot_seq <- db.wal_applied_seq;
  Heap.clear_dirty db

let of_channel db ic = read db (fun () -> In_channel.input_line ic)

let of_string db s =
  let lines = String.split_on_char '\n' s in
  let rest = ref lines in
  let next () =
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l
  in
  read db next

let load ?(storage = Storage.unix) db path =
  let content = storage.Storage.read_file path in
  of_string db content;
  db.stats.snapshot_bytes <- String.length content

(* --- incremental (delta) checkpoints -------------------------------------

   A delta persists only the objects dirtied since the last snapshot
   artifact, chained to it by WAL sequence number:

     SENTINELDELTA 1
     prev <P>        sequence the previous chain element covered
     walseq <D>      sequence this delta covers through
     clock/nextoid   absolute values at delta time
     obj ... end     full record per dirty object (replace semantics)
     del <oid>       objects deleted since the previous element
     classcons/index full replacement (both sections are small)
     EOF

   A delta is valid on top of a store exactly when [prev] equals the
   store's [snapshot_seq]; a stale delta (e.g. left behind by a crashed
   compaction) fails that check and is ignored by recovery, which is safe
   because the WAL retains every batch past the base it chains from. *)

let delta_magic = "SENTINELDELTA 1"

let write_delta db emit =
  let pr fmt = Printf.ksprintf emit fmt in
  pr "%s\n" delta_magic;
  pr "prev %d\n" db.snapshot_seq;
  pr "walseq %d\n" db.wal_applied_seq;
  pr "clock %d\n" db.now;
  pr "nextoid %d\n" db.next_oid;
  (* a store with no base yet keeps no dirty set: every live object is in
     the delta, as if each had been marked *)
  let dirty =
    if Heap.no_base db then Oid.sorted_keys db.objects else Oid.sorted_keys db.dirty
  in
  Array.iter
    (fun oid ->
      match Oid.Table.find_opt db.objects oid with
      | Some o when o.alive -> emit_obj emit o
      | _ -> ())
    dirty;
  Array.iter (fun oid -> pr "del %d\n" (Oid.to_int oid)) (Oid.sorted_keys db.dirty_dead);
  emit_classcons emit db;
  emit_indexes emit db;
  pr "EOF\n"

let save_delta ?(storage = Storage.unix) db path =
  let bytes = save_atomic storage db path (write_delta db) in
  (* This delta is the new baseline: the next one chains from here. *)
  db.snapshot_seq <- db.wal_applied_seq;
  Heap.clear_dirty db;
  bytes

let delta_header ?(storage = Storage.unix) path =
  if not (storage.Storage.exists path) then None
  else
    let content = try storage.Storage.read_file path with _ -> "" in
    match String.split_on_char '\n' content with
    | m :: p :: w :: _ when m = delta_magic -> (
      match (split_words p, split_words w) with
      | [ "prev"; p ], [ "walseq"; w ] -> (
        match (int_of_string_opt p, int_of_string_opt w) with
        | Some p, Some w -> Some (p, w)
        | _ -> None)
      | _ -> None)
    | _ -> None

let apply_delta ?(storage = Storage.unix) db path =
  if Transaction.in_progress db then
    raise (Errors.Transaction_error "cannot apply a delta during a transaction");
  match delta_header ~storage path with
  | None -> `Stale
  | Some (prev, dseq) when prev <> db.snapshot_seq || dseq < prev -> `Stale
  | Some (_, dseq) ->
    let lines = String.split_on_char '\n' (storage.Storage.read_file path) in
    let rest = ref lines and lineno = ref 0 in
    let next_line () =
      match !rest with
      | [] -> None
      | l :: tl ->
        rest := tl;
        incr lineno;
        Some l
    in
    let fail fmt =
      Printf.ksprintf (fun m -> parse_error "delta line %d: %s" !lineno m) fmt
    in
    let parse_int w =
      match int_of_string_opt w with Some n -> n | None -> fail "bad int %s" w
    in
    let parse_oid w = Oid.of_int (parse_int w) in
    (* Replaying mutations below must not re-journal them: the WAL already
       holds (or held) these batches. *)
    let saved_journal = db.on_journal in
    db.on_journal <- None;
    Fun.protect
      ~finally:(fun () -> db.on_journal <- saved_journal)
      (fun () ->
        let classcons = ref [] and desired_ix = ref [] in
        let apply_obj oid cls =
          if not (Db.has_class db cls) then raise (Errors.No_such_class cls);
          let info = Heap.class_info db cls in
          let o =
            Heap.make_obj ~id:oid ~cls ~info
              ~store:(Heap.fresh_store info `Empty)
              ~consumers:[]
          in
          let rec body () =
            match next_line () with
            | None -> fail "unterminated object"
            | Some line -> (
              match split_words line with
              | [ "end" ] -> ()
              | "a" :: name :: [ enc ] ->
                Heap.store_put_loose o name (decode_value enc);
                body ()
              | "c" :: oids ->
                o.consumers <- List.map parse_oid oids;
                body ()
              | _ -> fail "bad object body: %s" line)
          in
          body ();
          (* replace semantics: a base-snapshot version of the object gives
             way to the delta's newer record *)
          (match Oid.Table.find_opt db.objects oid with
          | Some old -> Heap.remove_obj db old
          | None -> ());
          Heap.insert_obj db o
        in
        let rec toplevel () =
          match next_line () with
          | None -> fail "missing EOF marker"
          | Some line -> (
            match split_words line with
            | [ "EOF" ] -> ()
            | [ "prev"; _ ] | [ "walseq"; _ ] -> toplevel ()
            | [ "clock"; v ] ->
              Db.advance_clock db (parse_int v);
              toplevel ()
            | [ "nextoid"; v ] ->
              db.next_oid <- max db.next_oid (parse_int v);
              toplevel ()
            | [ "obj"; oid; cls ] ->
              apply_obj (parse_oid oid) cls;
              toplevel ()
            | [ "del"; oid ] ->
              (* lenient: the object may never have reached the base *)
              (match Oid.Table.find_opt db.objects (parse_oid oid) with
              | Some o -> Heap.remove_obj db o
              | None -> ());
              toplevel ()
            | "classcons" :: cls :: oids ->
              if not (Db.has_class db cls) then raise (Errors.No_such_class cls);
              classcons := (cls, List.map parse_oid oids) :: !classcons;
              toplevel ()
            | [ "index"; cls; attr; kind ] ->
              let kind =
                match kind with
                | "hash" -> `Hash
                | "ordered" -> `Ordered
                | other -> fail "unknown index kind %s" other
              in
              desired_ix := (cls, attr, kind) :: !desired_ix;
              toplevel ()
            | [] -> toplevel ()
            | _ -> fail "bad line: %s" line)
        in
        (match next_line () with
        | Some l when l = delta_magic -> ()
        | _ -> fail "bad delta magic");
        toplevel ();
        (* full-replacement sections *)
        Hashtbl.fold (fun cls _ acc -> cls :: acc) db.class_consumers []
        |> List.iter (fun cls -> Heap.set_class_consumers db cls []);
        List.iter
          (fun (cls, oids) -> Heap.set_class_consumers db cls oids)
          !classcons;
        db.class_sub_gen <- db.class_sub_gen + 1;
        let current =
          Hashtbl.fold
            (fun (cls, attr) ix acc ->
              let kind =
                match ix.ix_backing with
                | Ix_hash _ -> `Hash
                | Ix_ordered _ -> `Ordered
              in
              (cls, attr, kind) :: acc)
            db.indexes []
        in
        List.iter
          (fun (cls, attr, kind) ->
            (* kind mismatch drops too: the create pass rebuilds it *)
            if not (List.mem (cls, attr, kind) !desired_ix) then
              Db.drop_index db ~cls ~attr)
          current;
        List.iter
          (fun (cls, attr, kind) ->
            if not (Hashtbl.mem db.indexes (cls, attr)) then
              Db.create_index db ~kind ~cls ~attr ())
          !desired_ix);
    db.wal_applied_seq <- max db.wal_applied_seq dseq;
    db.snapshot_seq <- dseq;
    Heap.clear_dirty db;
    `Applied

(* The byte-level contract of the value, event and frame codecs and of the
   WAL: golden bytes (test/fixtures/codec_golden.hex) that every encoder must
   reproduce exactly, CRC-32 check vectors, decode/encode round trips, and
   the checksum's safety when several domains compute it at once. *)

open Helpers
module Persist = Oodb.Persist
module Codec = Events.Codec
module Crc32 = Oodb.Storage.Crc32
module Mem = Oodb.Storage.Mem
module Frame = Net.Frame
module Wal = Oodb.Wal

(* --- the cases ----------------------------------------------------------- *)

let all_bytes = String.init 256 Char.chr

let golden_values =
  [
    ("null", Value.Null);
    ("true", Value.Bool true);
    ("false", Value.Bool false);
    ("int-zero", Value.Int 0);
    ("int-neg", Value.Int (-42));
    ("int-max", Value.Int max_int);
    ("int-min", Value.Int min_int);
    ("float-nan", Value.Float Float.nan);
    ("float-inf", Value.Float Float.infinity);
    ("float-neg-inf", Value.Float Float.neg_infinity);
    ("float-zero", Value.Float 0.);
    ("float-neg-zero", Value.Float (-0.));
    ("float-min-subnormal", Value.Float 4.9406564584124654e-324);
    ("float-max-subnormal", Value.Float 2.2250738585072009e-308);
    ("float-neg-subnormal", Value.Float (-1.5e-310));
    ("float-min-normal", Value.Float Float.min_float);
    ("float-max", Value.Float Float.max_float);
    ("float-tenth", Value.Float 0.1);
    ("float-price", Value.Float (-123.456));
    ("float-one", Value.Float 1.);
    ("str-empty", Value.Str "");
    ("str-safe", Value.Str "abc.XYZ-09_/@!?+*=<>");
    ("str-all-bytes", Value.Str all_bytes);
    ("oid", Value.Obj (Oid.of_int 123456));
    ("list-empty", Value.List []);
    ( "list-nested",
      Value.List
        [
          Value.Int 1;
          Value.List [];
          Value.List [ Value.Str "a,b)c"; Value.List [ Value.Float 2.5 ] ];
          Value.Null;
          Value.Str all_bytes;
        ] );
  ]

let occ ~source ~cls ~meth ~at ~params modifier =
  Oodb.Occurrence.make ~source:(Oid.of_int source) ~source_class:cls ~meth
    ~modifier ~params ~at

let golden_occurrences =
  [
    ( "occ-bare",
      occ ~source:7 ~cls:"stock" ~meth:"set_price" ~at:3 ~params:[] After );
    ( "occ-params",
      occ ~source:11 ~cls:"odd class,()|%" ~meth:"m;~x" ~at:99 Before
        ~params:
          [ Value.Float 1.25; Value.Str "a;b~c|d"; Value.List [ Value.Int 3 ] ] );
  ]

let golden_instances =
  [
    ("inst-empty", { Detector.constituents = []; t_start = 0; t_end = 0 });
    ( "inst-two",
      {
        Detector.constituents = List.map snd golden_occurrences;
        t_start = 3;
        t_end = 99;
      } );
  ]

let filter i cmp v = { Expr.pf_index = i; pf_cmp = cmp; pf_value = v }

let golden_exprs =
  let p = Expr.eom ~cls:"stock" "set_price" in
  let q =
    Expr.bom
      ~sources:[ Oid.of_int 3; Oid.of_int 1 ]
      ~filters:
        [
          filter 0 Expr.Cgt (Value.Float 100.);
          filter 1 Expr.Ceq (Value.Str "I,B(M)%");
        ]
      "sell order"
  in
  [
    ("expr-prim", p);
    ("expr-prim-filters", q);
    ("expr-and", Expr.conj p q);
    ("expr-or", Expr.disj p q);
    ("expr-seq", Expr.seq p q);
    ("expr-any", Expr.any 2 [ p; q; Expr.eom "tick" ]);
    ("expr-not", Expr.not_between p q p);
    ("expr-ap", Expr.aperiodic p q p);
    ("expr-apstar", Expr.aperiodic_star p q p);
    ("expr-per", Expr.periodic ~limit:4 p 10 q);
    ("expr-per-unbounded", Expr.periodic p 10 q);
    ("expr-plus", Expr.plus q 5);
  ]

let golden_events =
  [
    ("ev-bare", (Oid.of_int 1, "tick", []));
    ("ev-price", (Oid.of_int 4242, "set_price", [ Value.Float 101.375 ]));
    ( "ev-mixed",
      ( Oid.of_int 0,
        "odd meth,();%",
        [
          Value.Int (-7);
          Value.Str all_bytes;
          Value.Null;
          Value.Bool true;
          Value.Obj (Oid.of_int 9);
          Value.List [ Value.Float Float.nan; Value.List [] ];
        ] ) );
  ]

let golden_frames =
  [
    Frame.Hello { version = Frame.version; client = "golden" };
    Frame.Send_many
      {
        trace = 0x1234_5678_9ABC;
        events = List.map (fun (_, e) -> Codec.encode_event e) golden_events;
      };
    Frame.Subscribe
      {
        name = "watch";
        classes = [ "stock"; "index" ];
        expr = Codec.encode (List.assoc "expr-and" golden_exprs);
      };
    Frame.Unsubscribe { sub_id = 17 };
    Frame.Query { cls = "stock"; pred = "price > 100.0" };
    Frame.Drain;
    Frame.Stats_req;
    Frame.Ping { token = -5 };
    Frame.Hello_ack { version = Frame.version; shards = 2 };
    Frame.Ack { count = 128 };
    Frame.Sub_ack { sub_id = 0xFFFF_FFFF };
    Frame.Notify
      {
        sub_id = 3;
        instances =
          List.map (fun (_, i) -> Codec.encode_instance i) golden_instances;
      };
    Frame.Rows
      {
        rows =
          [
            ( 5,
              "stock",
              [
                ("price", Persist.encode_value (Value.Float 9.5));
                ("sym", "s:IBM");
              ] );
            (max_int, "empty", []);
          ];
      };
    Frame.Query_done { total = 2 };
    Frame.Drain_done;
    Frame.Stats { text = "events 1\nshards 2\n" };
    Frame.Pong { token = max_int };
    Frame.Err { code = Frame.err_request; msg = "bad \000 payload" };
  ]

(* Two group-committed transactions sealed into one batch, with every
   mutation kind the engine journals for ordinary writes. *)
let golden_wal () =
  let fs = Mem.create () in
  let db = employee_db () in
  let wal =
    Wal.attach ~storage:(Mem.storage fs)
      ~group_commit:{ Wal.max_batch = 100; max_wait_us = max_int }
      db "golden.wal"
  in
  let ok = function Ok v -> v | Error e -> raise e in
  let a, b =
    ok
      (Transaction.atomically db (fun () ->
           let a = new_employee db ~salary:1500.25 ~name:"Ann, \"A\"" in
           let b = new_employee db ~salary:(-0.) ~name:all_bytes in
           Db.set db a "salary" (Value.Float 1e-310);
           Db.subscribe db ~reactive:a ~consumer:b;
           Db.subscribe_class db ~cls:"employee" ~consumer:b;
           (a, b)))
  in
  ok
    (Transaction.atomically db (fun () ->
         Db.create_index db ~kind:`Ordered ~cls:"employee" ~attr:"salary" ();
         Db.set db b "name" (Value.Str "");
         Db.drop_index db ~cls:"employee" ~attr:"salary";
         Db.delete_object db a));
  Wal.sync wal;
  Wal.detach wal;
  Mem.contents fs "golden.wal"

let golden_cases () =
  List.map (fun (n, v) -> ("value-" ^ n, Persist.encode_value v)) golden_values
  @ List.map (fun (n, o) -> (n, Codec.encode_occurrence o)) golden_occurrences
  @ List.map (fun (n, i) -> (n, Codec.encode_instance i)) golden_instances
  @ List.map (fun (n, e) -> (n, Codec.encode e)) golden_exprs
  @ List.map (fun (n, e) -> (n, Codec.encode_event e)) golden_events
  @ List.map
      (fun f -> (Printf.sprintf "frame-%02x" (Frame.tag f), Frame.encode f))
      golden_frames
  @ [ ("wal-v2", golden_wal ()) ]

(* Equal, down to the sign of zero and the NaN payload the encoding keeps. *)
let same_value a b =
  Persist.encode_value a = Persist.encode_value b && Value.equal a b

(* --- golden bytes -------------------------------------------------------- *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let load_fixture () =
  In_channel.with_open_bin (fixture "codec_golden.hex") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; hex ] -> (name, of_hex hex)
         | _ -> Alcotest.failf "malformed fixture line %S" l)

let test_golden_bytes () =
  let expected = load_fixture () in
  let actual = golden_cases () in
  Alcotest.(check (list string))
    "case names" (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (name, want) (_, got) ->
      if want <> got then
        Alcotest.failf "%s: encoder bytes changed\n want %S\n  got %S" name
          want got)
    expected actual

let test_golden_decodes () =
  let expected = load_fixture () in
  let bytes name = List.assoc name expected in
  List.iter
    (fun (n, v) ->
      let back = Persist.decode_value (bytes ("value-" ^ n)) in
      Alcotest.(check string)
        n (Persist.encode_value v) (Persist.encode_value back))
    golden_values;
  List.iter
    (fun (n, (o, m, ps)) ->
      let o', m', ps' = Codec.decode_event (bytes n) in
      Alcotest.(check bool)
        n true
        (Oid.equal o o' && m = m' && List.equal same_value ps ps'))
    golden_events;
  List.iter
    (fun (n, o) ->
      Alcotest.check occurrence n o (Codec.decode_occurrence (bytes n)))
    golden_occurrences;
  List.iter
    (fun (n, e) ->
      Alcotest.(check bool) n true (Expr.equal e (Codec.decode (bytes n))))
    golden_exprs;
  List.iter
    (fun f ->
      let n = Printf.sprintf "frame-%02x" (Frame.tag f) in
      Alcotest.(check bool) n true (Frame.decode (bytes n) = f))
    golden_frames

(* The golden log replays into the state its transactions built. *)
let test_golden_wal_replays () =
  let fs = Mem.create () in
  Mem.set_file fs "golden.wal" (List.assoc "wal-v2" (load_fixture ()));
  let db = employee_db () in
  let applied = Wal.replay ~storage:(Mem.storage fs) db "golden.wal" in
  Alcotest.(check int) "one batch" 1 applied;
  match Db.extent db "employee" with
  | [ b ] ->
    Alcotest.check value "name" (Value.Str "") (Db.get db b "name");
    Alcotest.check value "salary" (Value.Float (-0.)) (Db.get db b "salary")
  | l -> Alcotest.failf "expected one employee, got %d" (List.length l)

(* --- CRC-32 -------------------------------------------------------------- *)

let crc_hex ?crc s = Crc32.to_hex (Crc32.string ?crc s)

let test_crc_vectors () =
  Alcotest.(check string) "check value" "cbf43926" (crc_hex "123456789");
  Alcotest.(check string) "empty" "00000000" (crc_hex "");
  Alcotest.(check string) "one byte" "e8b7be43" (crc_hex "a");
  Alcotest.(check string)
    "fox" "414fa339"
    (crc_hex "The quick brown fox jumps over the lazy dog");
  Alcotest.(check string)
    "continued" (crc_hex "123456789")
    (crc_hex ~crc:(Crc32.string "1234") "56789");
  Alcotest.(check string)
    "continued from empty" (crc_hex "abc") (crc_hex ~crc:(Crc32.string "") "abc")

(* A checksum over a slice, or continued across a split, equals the
   checksum of the bytes alone. *)
let test_crc_slices =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"CRC-32 over slices and splits" ~count:500
       QCheck2.Gen.(
         triple (string_size ~gen:char (int_bound 100)) (int_bound 100)
           (int_bound 100))
       (fun (s, a, b) ->
         let n = String.length s in
         let pos = min a n in
         let len = min b (n - pos) in
         let whole = Crc32.string s in
         Crc32.update 0 s pos len = Crc32.string (String.sub s pos len)
         && Crc32.string ~crc:(Crc32.string (String.sub s 0 pos))
              (String.sub s pos (n - pos))
            = whole))

(* Checksums computed on several domains at once, each domain's first use
   of the module included, agree with one domain computing them alone. *)
let test_crc_across_domains () =
  let inputs =
    List.init 64 (fun i ->
        String.init (i * 37) (fun j -> Char.chr (((i * 7) + j) land 0xFF)))
  in
  let expect = List.map (fun s -> Crc32.string s) inputs in
  let go = Atomic.make false in
  let domains =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            List.init 20 (fun _ -> List.map (fun s -> Crc32.string s) inputs)))
  in
  Atomic.set go true;
  List.iter
    (fun d ->
      List.iter
        (fun got -> Alcotest.(check (list int)) "same checksums" expect got)
        (Domain.join d))
    domains

(* --- round trips --------------------------------------------------------- *)

let gen_value =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size ~gen:char (int_bound 24));
        map (fun i -> Value.Obj (Oid.of_int i)) nat;
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 1,
                 map
                   (fun l -> Value.List l)
                   (list_size (int_bound 4) (self (n - 1))) );
             ])

let test_value_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"value decode . encode = id" ~count:1000 gen_value
       (fun v -> same_value v (Persist.decode_value (Persist.encode_value v))))

let test_event_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"event decode . encode = id" ~count:500
       QCheck2.Gen.(
         triple nat
           (string_size ~gen:char (int_range 1 16))
           (list_size (int_bound 5) gen_value))
       (fun (o, m, ps) ->
         let o', m', ps' =
           Codec.decode_event (Codec.encode_event (Oid.of_int o, m, ps))
         in
         Oid.to_int o' = o && m' = m && List.equal same_value ps ps'))

(* --- hex floats ---------------------------------------------------------- *)

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

(* Any 64-bit pattern, weighted toward the classes a uniform draw rarely
   hits: subnormals and zeros, NaN payloads and infinities, and fractions
   with long runs of trailing zero digits. *)
let gen_float_bits =
  let open QCheck2.Gen in
  let with_exponent e =
    map2
      (fun sign frac ->
        Int64.logor
          (if sign then Int64.min_int else 0L)
          (Int64.logor
             (Int64.shift_left (Int64.of_int e) 52)
             (Int64.logand frac 0xF_FFFF_FFFF_FFFFL)))
      bool ui64
  in
  frequency
    [
      (6, ui64);
      (2, with_exponent 0);
      (2, with_exponent 0x7FF);
      ( 2,
        map2
          (fun b k -> Int64.logand b (Int64.shift_left (-1L) k))
          ui64 (int_bound 52) );
      ( 1,
        oneofl
          [
            0L;
            Int64.min_int;
            0x7FF0000000000000L;
            0xFFF0000000000000L;
            0x7FF8000000000000L;
            1L;
            0x000FFFFFFFFFFFFFL;
            0x0010000000000000L;
            0x7FEFFFFFFFFFFFFFL;
            0x3FF0000000000000L;
          ] );
    ]
  |> map Int64.float_of_bits

let print_float_bits f = Printf.sprintf "%h (bits %Lx)" f (bits f)

let hex_text f =
  let b = Buffer.create 32 in
  Persist.add_hex_float b f;
  Buffer.contents b

let test_hex_float_matches_printf =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"add_hex_float writes what %h writes"
       ~count:20_000 ~print:print_float_bits gen_float_bits (fun f ->
         hex_text f = Printf.sprintf "%h" f))

(* Every finite float's text is canonical and reads back to its bits, with
   the exponent's [+] raw or escaped, alone or as a value token. *)
let test_canonical_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"canonical hex floats read back their bits"
       ~count:20_000 ~print:print_float_bits gen_float_bits (fun f ->
         let t = Printf.sprintf "%h" f in
         let escaped =
           String.concat "%2B" (String.split_on_char '+' t)
         in
         let n = String.length t in
         let read ~escaped s =
           Persist.hex_float_sub ~escaped s 0 (String.length s)
         in
         let from_value =
           match Persist.decode_value ("f:" ^ t) with
           | Value.Float g -> Some g
           | _ -> None
         in
         if Float.is_finite f then
           (match read ~escaped:false t with
           | Some g -> same_bits f g
           | None -> false)
           && (match read ~escaped:true escaped with
              | Some g -> same_bits f g
              | None -> false)
           && (escaped = t || read ~escaped:false escaped = None)
           && (match from_value with Some g -> same_bits f g | None -> false)
           && Persist.hex_float_sub ~escaped:false ("x" ^ t ^ "x") 1 n
              |> Option.fold ~none:false ~some:(same_bits f)
         else
           (* nan and infinity are not canonical: float_of_string reads them *)
           read ~escaped:false t = None
           && match (from_value, float_of_string_opt t) with
              | Some g, Some h -> same_bits g h
              | _ -> false))

(* What a float token decoded to before the in-place reader: the token's
   [float_of_string], or the error naming it. *)
let float_token_oracle t =
  match float_of_string_opt t with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "value %S: bad float %s" ("f:" ^ t) t)

let decode_float_token t =
  match Persist.decode_value ("f:" ^ t) with
  | Value.Float f -> Ok f
  | v -> Error ("not a float: " ^ Persist.encode_value v)
  | exception Errors.Parse_error m -> Error m

let same_result a b =
  match (a, b) with
  | Ok f, Ok g -> same_bits f g
  | Error m, Error n -> m = n
  | _ -> false

(* Tokens near the canonical shape — a canonical text with one byte
   replaced, inserted or dropped, or drawn from the hex-float alphabet —
   decode exactly as [float_of_string] reads them. *)
let gen_near_float_token =
  let open QCheck2.Gen in
  let alphabet =
    oneofl
      [ '0'; '1'; '9'; 'a'; 'f'; 'A'; 'F'; 'x'; 'X'; 'p'; 'P'; '.'; '+'; '-';
        '_'; 'n'; 'i'; 'e'; ' ' ]
  in
  let mutate t pos c how =
    let n = String.length t in
    let pos = pos mod (n + 1) in
    match how with
    | 0 when pos < n -> String.mapi (fun i x -> if i = pos then c else x) t
    | 1 -> String.sub t 0 pos ^ String.make 1 c ^ String.sub t pos (n - pos)
    | _ when pos < n ->
      String.sub t 0 pos ^ String.sub t (pos + 1) (n - pos - 1)
    | _ -> t
  in
  oneof
    [
      map
        (fun (f, pos, c, how) -> mutate (Printf.sprintf "%h" f) pos c how)
        (quad gen_float_bits (int_bound 40) alphabet (int_bound 2));
      string_size ~gen:alphabet (int_bound 24);
    ]

let test_non_canonical_tokens =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"other float tokens decode as float_of_string"
       ~count:5_000 ~print:(Printf.sprintf "%S") gen_near_float_token (fun t ->
         same_result (decode_float_token t) (float_token_oracle t)))

(* What an event's single parameter decoded to before the in-place reader:
   the field unescaped, then decoded as a value. *)
let event_param_oracle ev p =
  match Persist.unescape_sub p 0 (String.length p) with
  | exception Errors.Parse_error m -> Error (Printf.sprintf "event %S: %s" ev m)
  | text -> (
    match Persist.decode_value text with
    | Value.Float f -> Ok f
    | v -> Error ("not a float: " ^ Persist.encode_value v)
    | exception Errors.Parse_error m -> Error m)

let decode_event_param ev =
  match Codec.decode_event ev with
  | _, _, [ Value.Float f ] -> Ok f
  | _, _, ps ->
    Error
      ("not one float: " ^ String.concat ";" (List.map Persist.encode_value ps))
  | exception Errors.Parse_error m -> Error m

let test_non_canonical_event_params =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"other escaped float parameters decode as before"
       ~count:5_000
       ~print:(fun (tag, t) -> Printf.sprintf "%S" (tag ^ t))
       QCheck2.Gen.(
         pair
           (oneofl [ "f%3A"; "f%3a"; "f:" ])
           (map
              (fun t ->
                String.concat "%2B" (String.split_on_char '+' t)
                |> String.split_on_char 'P'
                |> String.concat "%2b")
              gen_near_float_token))
       (fun (tag, t) ->
         let p = tag ^ t in
         let ev = "ev(1,m," ^ p ^ ")" in
         same_result (decode_event_param ev) (event_param_oracle ev p)))

let test_float_token_cases () =
  let float_of = function
    | Value.Float f -> f
    | v -> Alcotest.failf "not a float: %s" (Persist.encode_value v)
  in
  List.iter
    (fun (token, want) ->
      Alcotest.(check bool)
        token true
        (same_bits want (float_of (Persist.decode_value token))))
    [
      ("f:1.5", 1.5);
      ("f:0X1P+0", 1.);
      ("f:0x1.0000000000000000p+0", 1.);
      ("f:+0x1p+0", 1.);
      ("f:0x1p+1024", Float.infinity);
      ("f:0x0.8p-1022", 0x0.8p-1022);
      ("f:0x1p-1074", 0x1p-1074);
      ("f:-0x0p+0", -0.);
    ];
  (match Codec.decode_event "ev(1,m,f%3a0x1.8p%2b1)" with
  | _, "m", [ Value.Float f ] -> Alcotest.(check (float 0.)) "escaped" 3. f
  | _ -> Alcotest.fail "lowercase escapes: expected one float");
  (match Codec.decode_event "ev(1,m,f%3A0x1.8p%2B1)" with
  | _, "m", [ Value.Float f ] -> Alcotest.(check (float 0.)) "canonical" 3. f
  | _ -> Alcotest.fail "canonical: expected one float");
  List.iter
    (fun token ->
      match Persist.decode_value token with
      | v -> Alcotest.failf "%s decoded to %s" token (Persist.encode_value v)
      | exception Errors.Parse_error m ->
        let t = String.sub token 2 (String.length token - 2) in
        Alcotest.(check string)
          token
          (Printf.sprintf "value %S: bad float %s" token t)
          m)
    [ "f:0x1p"; "f:0x1.p"; "f:"; "f:0x1p%2B0"; "f:0xgp+0" ]

(* --- Send_many in place ------------------------------------------------- *)

(* Batches of events with every value kind, method names that need
   escaping, and runs of one method, so the decoder's name sharing is
   exercised. *)
let gen_batch =
  let open QCheck2.Gen in
  let meth =
    oneof
      [
        oneofl [ "set_price"; "tick"; "odd meth,();%" ];
        string_size ~gen:char (int_range 1 12);
      ]
  in
  list_size (int_bound 20)
    (triple nat meth (list_size (int_bound 4) gen_value))

let same_event (o, m, ps) (o', m', ps') =
  Oid.to_int o = Oid.to_int o' && m = m' && List.equal same_value ps ps'

let test_send_many_in_place =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Send_many decoded in place = decoded per string"
       ~count:300
       QCheck2.Gen.(pair nat gen_batch)
       (fun (trace, batch) ->
         let batch = List.map (fun (o, m, ps) -> (Oid.of_int o, m, ps)) batch in
         let frame =
           Frame.encode
             (Frame.Send_many
                { trace; events = List.map Codec.encode_event batch })
         in
         let per_string =
           match Frame.decode frame with
           | Frame.Send_many { events; _ } -> List.map Codec.decode_event events
           | _ -> []
         in
         let in_place =
           match Frame.decode_request frame with
           | Frame.Events { trace = tr; events } ->
             tr = trace
             && Frame.event_count events = List.length batch
             && List.equal same_event (Frame.decode_events events) per_string
           | Frame.Message _ -> false
         in
         let b = Frame.batch () in
         List.iter (Frame.batch_add b) batch;
         in_place
         && List.equal same_event per_string batch
         && Frame.batch_length b = List.length batch
         && Frame.batch_frame b ~trace = frame))

(* A batch is reusable once cleared, and framing leaves it as it was. *)
let test_batch_reuse () =
  let ev k = (Oid.of_int k, "set_price", [ Value.Float (float_of_int k) ]) in
  let b = Frame.batch () in
  List.iter (fun k -> Frame.batch_add b (ev k)) [ 1; 2; 3 ];
  let first = Frame.batch_frame b ~trace:7 in
  Alcotest.(check string) "framing twice" first (Frame.batch_frame b ~trace:7);
  Frame.batch_clear b;
  Alcotest.(check int) "cleared" 0 (Frame.batch_length b);
  Frame.batch_add b (ev 4);
  Alcotest.(check string)
    "after a clear"
    (Frame.encode
       (Frame.Send_many { trace = 9; events = [ Codec.encode_event (ev 4) ] }))
    (Frame.batch_frame b ~trace:9)

let suite =
  [
    test "golden bytes reproduced" test_golden_bytes;
    test "golden bytes decode" test_golden_decodes;
    test "golden WAL replays" test_golden_wal_replays;
    test "CRC-32 check vectors" test_crc_vectors;
    test_crc_slices;
    test "CRC-32 across domains" test_crc_across_domains;
    test_value_roundtrip;
    test_event_roundtrip;
    test_hex_float_matches_printf;
    test_canonical_roundtrip;
    test_non_canonical_tokens;
    test_non_canonical_event_params;
    test "float token cases" test_float_token_cases;
    test_send_many_in_place;
    test "Send_many batch reuse" test_batch_reuse;
  ]

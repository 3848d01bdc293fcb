let version = 1
let magic = "SNTL"
let header_len = 16
let max_payload = 16 * 1024 * 1024

exception Frame_error of string
exception Version_mismatch of int

let frame_error fmt = Printf.ksprintf (fun m -> raise (Frame_error m)) fmt

type t =
  | Hello of { version : int; client : string }
  | Send_many of { trace : int; events : string list }
  | Subscribe of { name : string; classes : string list; expr : string }
  | Unsubscribe of { sub_id : int }
  | Query of { cls : string; pred : string }
  | Drain
  | Stats_req
  | Ping of { token : int }
  | Hello_ack of { version : int; shards : int }
  | Ack of { count : int }
  | Sub_ack of { sub_id : int }
  | Notify of { sub_id : int; instances : string list }
  | Rows of { rows : (int * string * (string * string) list) list }
  | Query_done of { total : int }
  | Drain_done
  | Stats of { text : string }
  | Pong of { token : int }
  | Err of { code : int; msg : string }

let err_version = 1
let err_frame = 2
let err_request = 3
let err_degraded = 4
let err_overload = 5
let err_stopped = 6

let send_many_tag = 0x02

let tag = function
  | Hello _ -> 0x01
  | Send_many _ -> send_many_tag
  | Subscribe _ -> 0x03
  | Unsubscribe _ -> 0x04
  | Query _ -> 0x05
  | Drain -> 0x06
  | Stats_req -> 0x07
  | Ping _ -> 0x08
  | Hello_ack _ -> 0x81
  | Ack _ -> 0x82
  | Sub_ack _ -> 0x83
  | Notify _ -> 0x84
  | Rows _ -> 0x85
  | Query_done _ -> 0x86
  | Drain_done -> 0x87
  | Stats _ -> 0x88
  | Pong _ -> 0x89
  | Err _ -> 0x8A

(* --- payload primitives ----------------------------------------------------

   Big-endian fixed-width integers and u32-length-prefixed strings, written
   into a frame buffer sized up front and read through a cursor over the
   received bytes.  Ints travel as i64 (OCaml ints are 63-bit, so every int
   fits); short counts as u32. *)

type writer = { b : Bytes.t; mutable at : int }

let put_u32 w v =
  if v < 0 || v > 0xFFFF_FFFF then frame_error "u32 out of range: %d" v;
  Bytes.set_int32_be w.b w.at (Int32.of_int v);
  w.at <- w.at + 4

let put_i64 w v =
  Bytes.set_int64_be w.b w.at (Int64.of_int v);
  w.at <- w.at + 8

let put_str w s =
  let n = String.length s in
  put_u32 w n;
  Bytes.blit_string s 0 w.b w.at n;
  w.at <- w.at + n

let put_list w put items =
  put_u32 w (List.length items);
  List.iter (put w) items

let str_size s = 4 + String.length s
let list_size size items = List.fold_left (fun n x -> n + size x) 4 items

(* [first] is where the payload starts in [data], [stop] where it ends. *)
type cursor = { data : string; mutable pos : int; first : int; stop : int }

let need cur n =
  if cur.pos + n > cur.stop then
    frame_error "payload truncated at byte %d (need %d more)"
      (cur.pos - cur.first) n

let byte cur i = Char.code (String.unsafe_get cur.data (cur.pos + i))

let get_u32 cur =
  need cur 4;
  let v =
    (byte cur 0 lsl 24) lor (byte cur 1 lsl 16) lor (byte cur 2 lsl 8)
    lor byte cur 3
  in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_be cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_str cur =
  let len = get_u32 cur in
  need cur len;
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* cheap bomb guard: every element costs at least one length byte *)
let get_count cur =
  let n = get_u32 cur in
  if n > cur.stop - cur.pos then
    frame_error "list count %d exceeds remaining payload" n;
  n

let get_list cur get =
  let n = get_count cur in
  List.init n (fun _ -> get cur)

(* --- Send_many events in place ------------------------------------------------

   A Send_many payload is the trace, a u32 count and that many
   u32-length-prefixed event encodings.  The decoder checks every length
   once ([get_events]) and leaves the events where they lie; [fold_events]
   then walks them without copying. *)

type events = { ev_data : string; ev_first : int; ev_count : int }

let get_events cur =
  let count = get_count cur in
  let first = cur.pos in
  for _ = 1 to count do
    let len = get_u32 cur in
    need cur len;
    cur.pos <- cur.pos + len
  done;
  { ev_data = cur.data; ev_first = first; ev_count = count }

let event_count ev = ev.ev_count

let fold_events f ev acc =
  let pos = ref ev.ev_first and acc = ref acc in
  for _ = 1 to ev.ev_count do
    let len =
      Int32.to_int (String.get_int32_be ev.ev_data !pos) land 0xFFFF_FFFF
    in
    acc := f ev.ev_data (!pos + 4) len !acc;
    pos := !pos + 4 + len
  done;
  !acc

let event_strings ev =
  List.rev
    (fold_events (fun data pos len acc -> String.sub data pos len :: acc) ev [])

let decode_events ev =
  let meth = ref "" in
  List.rev
    (fold_events
       (fun data pos len acc ->
         let ((_, m, _) as e) =
           Events.Codec.decode_event_sub ~meth:!meth data pos len
         in
         meth := m;
         e :: acc)
       ev [])

(* --- message payloads ------------------------------------------------------ *)

let payload_size = function
  | Hello { client; _ } -> 4 + str_size client
  | Send_many { events; _ } -> 8 + list_size str_size events
  | Subscribe { name; classes; expr } ->
    str_size name + list_size str_size classes + str_size expr
  | Unsubscribe _ | Ack _ | Sub_ack _ | Query_done _ -> 4
  | Query { cls; pred } -> str_size cls + str_size pred
  | Drain | Stats_req | Drain_done -> 0
  | Ping _ | Pong _ | Hello_ack _ -> 8
  | Notify { instances; _ } -> 4 + list_size str_size instances
  | Rows { rows } ->
    list_size
      (fun (_, cls, attrs) ->
        8 + str_size cls
        + list_size (fun (name, v) -> str_size name + str_size v) attrs)
      rows
  | Stats { text } -> str_size text
  | Err { msg; _ } -> 4 + str_size msg

let encode_payload buf = function
  | Hello { version; client } ->
    put_u32 buf version;
    put_str buf client
  | Send_many { trace; events } ->
    put_i64 buf trace;
    put_list buf put_str events
  | Subscribe { name; classes; expr } ->
    put_str buf name;
    put_list buf put_str classes;
    put_str buf expr
  | Unsubscribe { sub_id } -> put_u32 buf sub_id
  | Query { cls; pred } ->
    put_str buf cls;
    put_str buf pred
  | Drain | Stats_req | Drain_done -> ()
  | Ping { token } -> put_i64 buf token
  | Hello_ack { version; shards } ->
    put_u32 buf version;
    put_u32 buf shards
  | Ack { count } -> put_u32 buf count
  | Sub_ack { sub_id } -> put_u32 buf sub_id
  | Notify { sub_id; instances } ->
    put_u32 buf sub_id;
    put_list buf put_str instances
  | Rows { rows } ->
    put_list buf
      (fun buf (oid, cls, attrs) ->
        put_i64 buf oid;
        put_str buf cls;
        put_list buf
          (fun buf (name, v) ->
            put_str buf name;
            put_str buf v)
          attrs)
      rows
  | Query_done { total } -> put_u32 buf total
  | Stats { text } -> put_str buf text
  | Pong { token } -> put_i64 buf token
  | Err { code; msg } ->
    put_u32 buf code;
    put_str buf msg

(* Every message but Send_many, which [decode_body] leaves in place. *)
let decode_payload tag_v cur =
  match tag_v with
  | 0x01 ->
    let version = get_u32 cur in
    let client = get_str cur in
    Hello { version; client }
  | 0x03 ->
    let name = get_str cur in
    let classes = get_list cur get_str in
    let expr = get_str cur in
    Subscribe { name; classes; expr }
  | 0x04 -> Unsubscribe { sub_id = get_u32 cur }
  | 0x05 ->
    let cls = get_str cur in
    let pred = get_str cur in
    Query { cls; pred }
  | 0x06 -> Drain
  | 0x07 -> Stats_req
  | 0x08 -> Ping { token = get_i64 cur }
  | 0x81 ->
    let version = get_u32 cur in
    let shards = get_u32 cur in
    Hello_ack { version; shards }
  | 0x82 -> Ack { count = get_u32 cur }
  | 0x83 -> Sub_ack { sub_id = get_u32 cur }
  | 0x84 ->
    let sub_id = get_u32 cur in
    let instances = get_list cur get_str in
    Notify { sub_id; instances }
  | 0x85 ->
    let rows =
      get_list cur (fun cur ->
          let oid = get_i64 cur in
          let cls = get_str cur in
          let attrs =
            get_list cur (fun cur ->
                let name = get_str cur in
                let v = get_str cur in
                (name, v))
          in
          (oid, cls, attrs))
    in
    Rows { rows }
  | 0x86 -> Query_done { total = get_u32 cur }
  | 0x87 -> Drain_done
  | 0x88 -> Stats { text = get_str cur }
  | 0x89 -> Pong { token = get_i64 cur }
  | 0x8A ->
    let code = get_u32 cur in
    let msg = get_str cur in
    Err { code; msg }
  | t -> frame_error "unknown message tag 0x%02x" t

(* --- framing --------------------------------------------------------------- *)

(* Fill in the header of a frame whose [len]-byte payload is already in
   place after it; the CRC is taken over the payload where it lies. *)
let seal b ~version ~tag len =
  let crc =
    Oodb.Storage.Crc32.update 0 (Bytes.unsafe_to_string b) header_len len
  in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr (version land 0xFF));
  Bytes.set b 5 (Char.chr tag);
  Bytes.set b 6 '\000';
  Bytes.set b 7 '\000';
  Bytes.set_int32_be b 8 (Int32.of_int len);
  Bytes.set_int32_be b 12 (Int32.of_int crc);
  Bytes.unsafe_to_string b

let check_size len =
  if len > max_payload then
    frame_error "payload %d bytes exceeds max %d" len max_payload

(* Header and payload share one buffer sized up front. *)
let encode ?(version = version) msg =
  let len = payload_size msg in
  check_size len;
  let b = Bytes.create (header_len + len) in
  encode_payload { b; at = header_len } msg;
  seal b ~version ~tag:(tag msg) len

(* --- Send_many built in place ---------------------------------------------- *)

type batch = {
  pending : Buffer.t;  (* the length-prefixed encodings *)
  scratch : Buffer.t;
  mutable count : int;
}

let batch () =
  { pending = Buffer.create 1024; scratch = Buffer.create 64; count = 0 }

(* The event is encoded apart first, so that a failure leaves the batch as
   it was and its length is known before its prefix is written. *)
let batch_add t e =
  Buffer.clear t.scratch;
  Events.Codec.add_event t.scratch e;
  Buffer.add_int32_be t.pending (Int32.of_int (Buffer.length t.scratch));
  Buffer.add_buffer t.pending t.scratch;
  t.count <- t.count + 1

let batch_length t = t.count

let batch_clear t =
  Buffer.clear t.pending;
  t.count <- 0

let batch_frame t ~trace =
  let n = Buffer.length t.pending in
  let len = 12 + n in
  check_size len;
  let b = Bytes.create (header_len + len) in
  let w = { b; at = header_len } in
  put_i64 w trace;
  put_u32 w t.count;
  Buffer.blit t.pending 0 b w.at n;
  seal b ~version ~tag:send_many_tag len

(* Parse the 16-byte header; returns (version, tag, payload_len, crc). *)
let parse_header h =
  if String.length h < header_len then frame_error "header truncated";
  if not (String.starts_with ~prefix:magic h) then
    frame_error "bad magic %S" (String.sub h 0 4);
  let v = Char.code h.[4] in
  let tag_v = Char.code h.[5] in
  if h.[6] <> '\000' || h.[7] <> '\000' then frame_error "non-zero flags";
  let b i = Char.code h.[i] in
  let len = (b 8 lsl 24) lor (b 9 lsl 16) lor (b 10 lsl 8) lor b 11 in
  let crc = (b 12 lsl 24) lor (b 13 lsl 16) lor (b 14 lsl 8) lor b 15 in
  if len > max_payload then frame_error "payload length %d exceeds max" len;
  if v <> version then raise (Version_mismatch v);
  (v, tag_v, len, crc)

type request = Message of t | Events of { trace : int; events : events }

(* The payload is the [first, stop) slice of [data]: checked and decoded in
   place. *)
let decode_body tag_v data first stop crc =
  if Oodb.Storage.Crc32.update 0 data first (stop - first) <> crc then
    frame_error "CRC mismatch";
  let cur = { data; pos = first; first; stop } in
  let req =
    if tag_v = send_many_tag then
      let trace = get_i64 cur in
      Events { trace; events = get_events cur }
    else Message (decode_payload tag_v cur)
  in
  if cur.pos <> stop then
    frame_error "trailing payload bytes (%d unread)" (stop - cur.pos);
  req

let message = function
  | Message m -> m
  | Events { trace; events } ->
    Send_many { trace; events = event_strings events }

let decode_request s =
  let _, tag_v, len, crc = parse_header s in
  if String.length s <> header_len + len then
    frame_error "frame length %d, header promises %d" (String.length s)
      (header_len + len);
  decode_body tag_v s header_len (String.length s) crc

let decode s = message (decode_request s)

(* --- blocking stream I/O --------------------------------------------------- *)

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = retry_eintr (fun () -> Unix.write fd b pos len) in
    write_all fd b (pos + n) (len - n)
  end

let write_encoded fd s =
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let write_fd fd ?version msg =
  let s = encode ?version msg in
  write_encoded fd s;
  String.length s

(* Read exactly [len] bytes; End_of_file on a peer close. *)
let read_exact fd len =
  let b = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let n = retry_eintr (fun () -> Unix.read fd b !pos (len - !pos)) in
    if n = 0 then raise End_of_file;
    pos := !pos + n
  done;
  Bytes.unsafe_to_string b

let read_request fd =
  let header = read_exact fd header_len in
  let _, tag_v, len, crc = parse_header header in
  let payload = if len = 0 then "" else read_exact fd len in
  (decode_body tag_v payload 0 len crc, header_len + len)

let read_fd fd =
  let req, n = read_request fd in
  (message req, n)

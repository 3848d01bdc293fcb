exception Connection_failed of string
exception Version_mismatch of { server : int; client : int }
exception Server_error of { code : int; msg : string }
exception Connection_lost

type stats = {
  events_sent : int;
  flushes : int;
  events_buffered : int;
  notifications : int;
  reconnects : int;
}

type sub = {
  s_id : int;  (* client-side, stable *)
  mutable s_server_id : int;  (* changes on reconnect *)
  s_name : string;
  s_classes : string list;
  s_expr : string;  (* Codec-encoded, ready to resend *)
  s_cb : Events.Detector.instance list -> unit;
}

type subscription = sub

type t = {
  host : string;
  port : int;
  client_name : string;
  buffer_max : int;
  max_attempts : int;
  rand : unit -> float;
  mu : Mutex.t;  (* connection state, replies, buffer, subs *)
  reply_cond : Condition.t;
  replies : Frame.t Queue.t;
  mutable fd : Unix.file_descr option;
  mutable receiver : Thread.t option;
  mutable shards : int;
  batch : Frame.batch;  (* events sent since the last flush, encoded *)
  mutable subs : sub list;
  mutable next_sub : int;
  mutable closed : bool;
  mutable ever_connected : bool;
  req_mu : Mutex.t;  (* one outstanding request at a time *)
  mutable n_sent : int;
  mutable n_flushes : int;
  mutable n_notifications : int;
  mutable n_reconnects : int;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- receiver -------------------------------------------------------------- *)

(* Frames read off the socket: Notify dispatches to its subscription's
   callback, everything else is a reply for the (single) waiting request.
   On any read failure the connection is marked down and waiters woken —
   the next request reconnects. *)
let receiver_loop t fd =
  let dispatch_notify sub_id instances =
    let cb =
      locked t.mu (fun () ->
          t.n_notifications <- t.n_notifications + List.length instances;
          List.find_opt (fun s -> s.s_server_id = sub_id) t.subs
          |> Option.map (fun s -> s.s_cb))
    in
    match cb with
    | None -> ()  (* raced an unsubscribe; drop *)
    | Some cb -> cb (List.map Events.Codec.decode_instance instances)
  in
  let rec loop () =
    match Frame.read_fd fd with
    | exception _ -> ()
    | Frame.Notify { sub_id; instances }, _ ->
      dispatch_notify sub_id instances;
      loop ()
    | frame, _ ->
      locked t.mu (fun () ->
          Queue.push frame t.replies;
          Condition.broadcast t.reply_cond);
      loop ()
  in
  loop ();
  locked t.mu (fun () ->
      (match t.fd with
      | Some cur when cur == fd ->
        t.fd <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | _ -> ());
      Condition.broadcast t.reply_cond)

(* Pop the next reply frame; Connection_lost when the link drops while
   waiting.  Caller holds req_mu (so the next reply is ours) but not mu. *)
let wait_reply t =
  locked t.mu (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.replies) then Queue.pop t.replies
        else if t.closed || t.fd = None then raise Connection_lost
        else begin
          Condition.wait t.reply_cond t.mu;
          wait ()
        end
      in
      wait ())

let server_version_of_msg msg =
  (* best effort: the server's text is "server speaks protocol %d, ..." *)
  try Scanf.sscanf msg "server speaks protocol %d" (fun v -> v)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0

let raise_err code msg =
  if code = Frame.err_version then
    raise
      (Version_mismatch
         { server = server_version_of_msg msg; client = Frame.version })
  else raise (Server_error { code; msg })

(* --- connection management ------------------------------------------------- *)

(* Write one encoded frame; Connection_lost when the link is down or
   breaks. *)
let write_encoded t s =
  let fd = locked t.mu (fun () -> t.fd) in
  match fd with
  | None -> raise Connection_lost
  | Some fd -> (
    try Frame.write_encoded fd s
    with Unix.Unix_error _ | Sys_error _ ->
      locked t.mu (fun () ->
          (match t.fd with
          | Some cur when cur == fd ->
            t.fd <- None;
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | _ -> ());
          Condition.broadcast t.reply_cond);
      raise Connection_lost)

let write_frame t frame = write_encoded t (Frame.encode frame)

(* Establish a socket, handshake, and re-register live subscriptions.
   Caller holds req_mu.  Any successful handshake after the first counts
   as a reconnect. *)
let connect_once t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr =
       try Unix.inet_addr_of_string t.host
       with Failure _ -> (Unix.gethostbyname t.host).Unix.h_addr_list.(0)
     in
     Unix.connect fd (Unix.ADDR_INET (addr, t.port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  locked t.mu (fun () ->
      Queue.clear t.replies;
      t.fd <- Some fd);
  t.receiver <- Some (Thread.create (fun () -> receiver_loop t fd) ());
  write_frame t (Frame.Hello { version = Frame.version; client = t.client_name });
  (match wait_reply t with
  | Frame.Hello_ack { version = _; shards } ->
    locked t.mu (fun () -> t.shards <- shards)
  | Frame.Err { code; msg } -> raise_err code msg
  | _ -> raise (Server_error { code = Frame.err_frame; msg = "bad handshake reply" }));
  (* re-register subscriptions; server-side ids change *)
  let subs = locked t.mu (fun () -> t.subs) in
  List.iter
    (fun s ->
      write_frame t
        (Frame.Subscribe
           { name = s.s_name; classes = s.s_classes; expr = s.s_expr });
      match wait_reply t with
      | Frame.Sub_ack { sub_id } ->
        locked t.mu (fun () -> s.s_server_id <- sub_id)
      | Frame.Err { code; msg } -> raise_err code msg
      | _ ->
        raise (Server_error { code = Frame.err_frame; msg = "bad subscribe reply" }))
    subs;
  locked t.mu (fun () ->
      if t.ever_connected then t.n_reconnects <- t.n_reconnects + 1;
      t.ever_connected <- true)

let ensure_connected t =
  if locked t.mu (fun () -> t.closed) then raise Connection_lost;
  if locked t.mu (fun () -> t.fd) = None then begin
    let rec attempt n =
      match connect_once t with
      | () -> ()
      | exception (Version_mismatch _ as e) -> raise e
      | exception (Server_error _ as e) -> raise e
      | exception e ->
        (match locked t.mu (fun () -> t.fd) with
        | Some _ ->
          (* partial handshake failure: tear the socket down before retry *)
          locked t.mu (fun () ->
              match t.fd with
              | Some fd ->
                t.fd <- None;
                (try Unix.close fd with Unix.Unix_error _ -> ())
              | None -> ())
        | None -> ());
        if n >= t.max_attempts then
          raise (Connection_failed (Printexc.to_string e))
        else begin
          Thread.delay (Sentinel.Error_policy.retry_delay ~rand:t.rand n);
          attempt (n + 1)
        end
    in
    attempt 1
  end

(* Run one request with lazy reconnect: a connection lost mid-call is
   re-established and the request retried (at-least-once semantics). *)
let rpc t f =
  Mutex.lock t.req_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.req_mu)
    (fun () ->
      let rec go () =
        ensure_connected t;
        try f () with Connection_lost when not (locked t.mu (fun () -> t.closed)) -> go ()
      in
      go ())

(* --- API ------------------------------------------------------------------- *)

let connect ?(client_name = "sentinel-client") ?(buffer_max = 64)
    ?(max_attempts = 10) ?(rand = fun () -> Random.float 1.0) ~host ~port () =
  if buffer_max < 1 then invalid_arg "Sentinel_client.connect: buffer_max < 1";
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let t =
    {
      host;
      port;
      client_name;
      buffer_max;
      max_attempts;
      rand;
      mu = Mutex.create ();
      reply_cond = Condition.create ();
      replies = Queue.create ();
      fd = None;
      receiver = None;
      shards = 0;
      batch = Frame.batch ();
      subs = [];
      next_sub = 0;
      closed = false;
      ever_connected = false;
      req_mu = Mutex.create ();
      n_sent = 0;
      n_flushes = 0;
      n_notifications = 0;
      n_reconnects = 0;
    }
  in
  rpc t (fun () -> ());
  t

let shards t = locked t.mu (fun () -> t.shards)

let do_flush t =
  let frame =
    locked t.mu (fun () ->
        if Frame.batch_length t.batch = 0 then None
        else begin
          let trace =
            let cur = Obs.Trace.current () in
            if cur <> 0 then cur else Obs.Trace.fresh_id ()
          in
          (* framed once, so a retry resends the same bytes; the batch is
             emptied whether or not framing succeeds *)
          Fun.protect
            ~finally:(fun () -> Frame.batch_clear t.batch)
            (fun () -> Some (Frame.batch_frame t.batch ~trace))
        end)
  in
  match frame with
  | None -> 0
  | Some frame -> (
    let reply =
      rpc t (fun () ->
          write_encoded t frame;
          wait_reply t)
    in
    match reply with
    | Frame.Ack { count } ->
      locked t.mu (fun () ->
          t.n_sent <- t.n_sent + count;
          t.n_flushes <- t.n_flushes + 1);
      count
    | Frame.Err { code; msg } -> raise_err code msg
    | _ ->
      raise (Server_error { code = Frame.err_frame; msg = "bad ack reply" }))

(* The hot path: one lock, no closure, the event encoded straight into the
   connection's batch. *)
let send t event =
  Mutex.lock t.mu;
  match Frame.batch_add t.batch event with
  | exception e ->
    Mutex.unlock t.mu;
    raise e
  | () ->
    let full = Frame.batch_length t.batch >= t.buffer_max in
    Mutex.unlock t.mu;
    if full then ignore (do_flush t)

let flush t = do_flush t

let subscribe t ?(name = "") ~classes expr cb =
  let sub =
    locked t.mu (fun () ->
        let id = t.next_sub in
        t.next_sub <- id + 1;
        {
          s_id = id;
          s_server_id = -1;
          s_name = name;
          s_classes = classes;
          s_expr = Events.Codec.encode expr;
          s_cb = cb;
        })
  in
  let reply =
    rpc t (fun () ->
        write_frame t
          (Frame.Subscribe
             { name = sub.s_name; classes = sub.s_classes; expr = sub.s_expr });
        wait_reply t)
  in
  (match reply with
  | Frame.Sub_ack { sub_id } ->
    locked t.mu (fun () ->
        sub.s_server_id <- sub_id;
        t.subs <- sub :: t.subs)
  | Frame.Err { code; msg } -> raise_err code msg
  | _ ->
    raise (Server_error { code = Frame.err_frame; msg = "bad subscribe reply" }));
  sub

let unsubscribe t sub =
  let server_id =
    locked t.mu (fun () ->
        t.subs <- List.filter (fun s -> s.s_id <> sub.s_id) t.subs;
        sub.s_server_id)
  in
  if server_id >= 0 then
    let reply =
      rpc t (fun () ->
          write_frame t (Frame.Unsubscribe { sub_id = server_id });
          wait_reply t)
    in
    match reply with
    | Frame.Ack _ -> ()
    | Frame.Err { code; msg } -> raise_err code msg
    | _ ->
      raise (Server_error { code = Frame.err_frame; msg = "bad unsubscribe reply" })

let query t ~cls ~pred =
  rpc t (fun () ->
      write_frame t (Frame.Query { cls; pred });
      let rec collect acc =
        match wait_reply t with
        | Frame.Rows { rows } -> collect (List.rev_append rows acc)
        | Frame.Query_done { total = _ } -> List.rev acc
        | Frame.Err { code; msg } -> raise_err code msg
        | _ ->
          raise (Server_error { code = Frame.err_frame; msg = "bad query reply" })
      in
      collect [])

let drain t =
  ignore (do_flush t);
  let reply =
    rpc t (fun () ->
        write_frame t Frame.Drain;
        wait_reply t)
  in
  match reply with
  | Frame.Drain_done -> ()
  | Frame.Err { code; msg } -> raise_err code msg
  | _ -> raise (Server_error { code = Frame.err_frame; msg = "bad drain reply" })

let ping t =
  let token = locked t.mu (fun () -> t.next_sub * 7919 + 13) in
  let t0 = Unix.gettimeofday () in
  let reply =
    rpc t (fun () ->
        write_frame t (Frame.Ping { token });
        wait_reply t)
  in
  match reply with
  | Frame.Pong { token = tk } when tk = token -> Unix.gettimeofday () -. t0
  | Frame.Pong _ ->
    raise (Server_error { code = Frame.err_frame; msg = "pong token mismatch" })
  | Frame.Err { code; msg } -> raise_err code msg
  | _ -> raise (Server_error { code = Frame.err_frame; msg = "bad ping reply" })

let server_stats t =
  let reply =
    rpc t (fun () ->
        write_frame t Frame.Stats_req;
        wait_reply t)
  in
  match reply with
  | Frame.Stats { text } -> text
  | Frame.Err { code; msg } -> raise_err code msg
  | _ -> raise (Server_error { code = Frame.err_frame; msg = "bad stats reply" })

let stats t =
  locked t.mu (fun () ->
      {
        events_sent = t.n_sent;
        flushes = t.n_flushes;
        events_buffered = Frame.batch_length t.batch;
        notifications = t.n_notifications;
        reconnects = t.n_reconnects;
      })

let close t =
  let receiver =
    locked t.mu (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          (match t.fd with
          | Some fd ->
            t.fd <- None;
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ());
          Condition.broadcast t.reply_cond;
          let r = t.receiver in
          t.receiver <- None;
          r
        end)
  in
  match receiver with Some th -> Thread.join th | None -> ()

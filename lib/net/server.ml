module Shard_pool = Sentinel.Shard_pool
module System = Sentinel.System

(* --- metrics stages -------------------------------------------------------- *)

let stage name = Obs.Metrics.register ~id:(Oodb.Symbol.intern name) name
let st_connections = stage "net.connections"
let st_frames_in = stage "net.frames_in"
let st_frames_out = stage "net.frames_out"
let st_bytes_in = stage "net.bytes_in"
let st_bytes_out = stage "net.bytes_out"
let st_events = stage "net.events"
let st_notifications = stage "net.notifications"
let st_shed = stage "net.shed"
let st_flush = stage "net.flush"

type stats = {
  connections_accepted : int;
  connections_active : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  events_ingested : int;
  subscriptions_active : int;
  notifications_produced : int;
  notifications_enqueued : int;
  notifications_delivered : int;
  notifications_shed : int;
  notifications_parked : int;
  errors_sent : int;
}

(* A subscription: its wire id, the action it registered on every shard,
   and the per-shard rule OIDs its registration created, in shard index
   order.  The action and the rules go when the subscription does. *)
type sub = { sub_id : int; sub_action : string; sub_rules : Oodb.Oid.t list }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_mu : Mutex.t;
  c_cond : Condition.t;  (* work available / space freed / shutdown *)
  c_control : string Queue.t;  (* unbounded: encoded replies and errors *)
  c_notify : (int * string) Queue.t;  (* bounded outlet: (sub_id, instance) *)
  c_parked : (int * string) Queue.t;  (* Dead_letter ring *)
  mutable c_subs : sub list;
  mutable c_alive : bool;
  mutable c_cleaned : bool;
  mutable c_inflight : bool;  (* writer is mid-frame on the socket *)
  mutable c_reader : Thread.t option;
  mutable c_writer : Thread.t option;
}

type t = {
  s_pool : Shard_pool.t;
  s_listen : Unix.file_descr;
  s_port : int;
  s_capacity : int;
  s_policy : Shard_pool.backpressure;
  s_parked_limit : int;
  s_flush_max : int;
  s_so_sndbuf : int option;
  s_mu : Mutex.t;  (* conns list, stop flag, conn/sub id counters *)
  mutable s_conns : conn list;
  mutable s_alive : bool;
  mutable s_accept : Thread.t option;
  mutable s_next_conn : int;
  mutable s_next_sub : int;
  mutable s_accepted : int;
  s_frames_in : int Atomic.t;
  s_frames_out : int Atomic.t;
  s_bytes_in : int Atomic.t;
  s_bytes_out : int Atomic.t;
  s_events : int Atomic.t;
  s_subs_active : int Atomic.t;
  s_produced : int Atomic.t;
  s_enqueued : int Atomic.t;
  s_delivered : int Atomic.t;
  s_shed : int Atomic.t;
  s_errors : int Atomic.t;
}

let port t = t.s_port
let pool t = t.s_pool

(* Subscription action names must be unique for the life of the process:
   see handle_subscribe. *)
let action_seq = Atomic.make 0

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* --- stats ----------------------------------------------------------------- *)

let stats t =
  Mutex.lock t.s_mu;
  let accepted = t.s_accepted and conns = t.s_conns in
  Mutex.unlock t.s_mu;
  let parked =
    List.fold_left
      (fun acc c ->
        Mutex.lock c.c_mu;
        let n = Queue.length c.c_parked in
        Mutex.unlock c.c_mu;
        acc + n)
      0 conns
  in
  {
    connections_accepted = accepted;
    connections_active = List.length conns;
    frames_in = Atomic.get t.s_frames_in;
    frames_out = Atomic.get t.s_frames_out;
    bytes_in = Atomic.get t.s_bytes_in;
    bytes_out = Atomic.get t.s_bytes_out;
    events_ingested = Atomic.get t.s_events;
    subscriptions_active = Atomic.get t.s_subs_active;
    notifications_produced = Atomic.get t.s_produced;
    notifications_enqueued = Atomic.get t.s_enqueued;
    notifications_delivered = Atomic.get t.s_delivered;
    notifications_shed = Atomic.get t.s_shed;
    notifications_parked = parked;
    errors_sent = Atomic.get t.s_errors;
  }

let render_stats t =
  let s = stats t in
  String.concat "\n"
    [
      Printf.sprintf "connections_accepted %d" s.connections_accepted;
      Printf.sprintf "connections_active %d" s.connections_active;
      Printf.sprintf "frames_in %d" s.frames_in;
      Printf.sprintf "frames_out %d" s.frames_out;
      Printf.sprintf "bytes_in %d" s.bytes_in;
      Printf.sprintf "bytes_out %d" s.bytes_out;
      Printf.sprintf "events_ingested %d" s.events_ingested;
      Printf.sprintf "subscriptions_active %d" s.subscriptions_active;
      Printf.sprintf "notifications_produced %d" s.notifications_produced;
      Printf.sprintf "notifications_enqueued %d" s.notifications_enqueued;
      Printf.sprintf "notifications_delivered %d" s.notifications_delivered;
      Printf.sprintf "notifications_shed %d" s.notifications_shed;
      Printf.sprintf "notifications_parked %d" s.notifications_parked;
      Printf.sprintf "errors_sent %d" s.errors_sent;
    ]

(* --- outgoing queues ------------------------------------------------------- *)

(* Queue replies for the writer, encoded here so the writer can size its
   next write without encoding under the lock.  A multi-frame reply is
   queued in one step, so the writer finds all of it at once. *)
let enqueue_controls t conn frames =
  let encoded =
    List.map
      (fun frame ->
        (match frame with Frame.Err _ -> Atomic.incr t.s_errors | _ -> ());
        Frame.encode frame)
      frames
  in
  Mutex.lock conn.c_mu;
  if conn.c_alive then begin
    List.iter (fun s -> Queue.push s conn.c_control) encoded;
    Condition.broadcast conn.c_cond
  end;
  Mutex.unlock conn.c_mu

let enqueue_control t conn frame = enqueue_controls t conn [ frame ]

(* Wait (bounded) until the writer has the control queue on the wire, so an
   error reply is not cut off by the close that follows it. *)
let flush_control conn ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    Mutex.lock conn.c_mu;
    let done_ =
      (not conn.c_alive)
      || (Queue.is_empty conn.c_control && not conn.c_inflight)
    in
    Mutex.unlock conn.c_mu;
    if (not done_) && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ()

let notify_room conn capacity = Queue.length conn.c_notify < capacity

(* Offer one notification to the connection's outlet, governed by the
   server's backpressure policy.  Runs on an engine domain (it is a rule
   action), so a [Block] wait stalls that shard — exactly the coupling the
   policy asks for. *)
let push_notify t conn sub_id inst =
  Atomic.incr t.s_produced;
  Obs.Metrics.hit st_notifications;
  let enqueue () =
    Queue.push (sub_id, inst) conn.c_notify;
    Atomic.incr t.s_enqueued;
    Condition.broadcast conn.c_cond
  in
  let shed () =
    Atomic.incr t.s_shed;
    Obs.Metrics.hit st_shed
  in
  Mutex.lock conn.c_mu;
  (if not conn.c_alive then shed ()
   else if notify_room conn t.s_capacity then enqueue ()
   else
     match t.s_policy with
     | Shard_pool.Shed_newest -> shed ()
     | Shard_pool.Dead_letter ->
       (* park; evict the oldest parked entry when the ring is full *)
       if Queue.length conn.c_parked >= t.s_parked_limit then begin
         ignore (Queue.pop conn.c_parked);
         shed ()
       end;
       Queue.push (sub_id, inst) conn.c_parked
     | Shard_pool.Block { max_wait_ms } ->
       let deadline =
         Unix.gettimeofday () +. (float_of_int max_wait_ms /. 1000.)
       in
       let rec wait () =
         if not conn.c_alive then shed ()
         else if notify_room conn t.s_capacity then enqueue ()
         else if Unix.gettimeofday () >= deadline then shed ()
         else begin
           (* Condition has no timed wait; poll with the lock released *)
           Mutex.unlock conn.c_mu;
           Thread.delay 0.0005;
           Mutex.lock conn.c_mu;
           wait ()
         end
       in
       wait ());
  Mutex.unlock conn.c_mu

(* --- writer thread --------------------------------------------------------- *)

(* Only the connection's writer thread calls this (single-writer invariant:
   frames never interleave on the socket).  [s] holds [frames] whole
   encoded frames; the counters stay per frame however many share a
   write. *)
let send_encoded t conn ~frames s =
  Frame.write_encoded conn.c_fd s;
  let n = String.length s in
  ignore (Atomic.fetch_and_add t.s_frames_out frames);
  ignore (Atomic.fetch_and_add t.s_bytes_out n);
  Obs.Metrics.add st_frames_out frames;
  Obs.Metrics.add st_bytes_out n

(* Upper bound on the control frames coalesced into one write: replies
   queued together (a query's Rows and Query_done) leave in one syscall
   and reach the client in one wake-up. *)
let write_budget = 65536

(* Pop the control frames queued right now, up to [write_budget] bytes
   (always at least one); returns how many and their bytes, concatenated.
   Caller holds c_mu. *)
let pop_controls conn =
  let first = Queue.pop conn.c_control in
  let rec take acc bytes =
    match Queue.peek_opt conn.c_control with
    | Some s when bytes + String.length s <= write_budget ->
      ignore (Queue.pop conn.c_control);
      take (s :: acc) (bytes + String.length s)
    | _ -> List.rev acc
  in
  match take [] (String.length first) with
  | [] -> (1, first)
  | rest -> (1 + List.length rest, String.concat "" (first :: rest))

(* Pop a chunk of notifications for one subscription: a run of entries
   sharing the front entry's sub_id, up to flush_max.  Caller holds c_mu. *)
let pop_chunk t conn =
  let sub_id, first = Queue.pop conn.c_notify in
  let rec take acc n =
    if n >= t.s_flush_max then List.rev acc
    else
      match Queue.peek_opt conn.c_notify with
      | Some (sid, _) when sid = sub_id ->
        let _, inst = Queue.pop conn.c_notify in
        take (inst :: acc) (n + 1)
      | _ -> List.rev acc
  in
  (sub_id, take [ first ] 1)

let writer_loop t conn =
  let rec loop () =
    Mutex.lock conn.c_mu;
    while
      conn.c_alive
      && Queue.is_empty conn.c_control
      && Queue.is_empty conn.c_notify
      && Queue.is_empty conn.c_parked
    do
      Condition.wait conn.c_cond conn.c_mu
    done;
    if not conn.c_alive then Mutex.unlock conn.c_mu
    else if not (Queue.is_empty conn.c_control) then begin
      let frames, s = pop_controls conn in
      conn.c_inflight <- true;
      Mutex.unlock conn.c_mu;
      send_encoded t conn ~frames s;
      Mutex.lock conn.c_mu;
      conn.c_inflight <- false;
      Mutex.unlock conn.c_mu;
      loop ()
    end
    else begin
      (* the consumer caught up: replay parked notifications in order *)
      if Queue.is_empty conn.c_notify then begin
        let n = ref 0 in
        while (not (Queue.is_empty conn.c_parked)) && !n < t.s_flush_max do
          Queue.push (Queue.pop conn.c_parked) conn.c_notify;
          Atomic.incr t.s_enqueued;
          incr n
        done
      end;
      let sub_id, instances = pop_chunk t conn in
      conn.c_inflight <- true;
      Condition.broadcast conn.c_cond;
      Mutex.unlock conn.c_mu;
      let t0 = Obs.Metrics.enter st_flush in
      send_encoded t conn ~frames:1
        (Frame.encode (Frame.Notify { sub_id; instances }));
      Obs.Metrics.exit st_flush t0;
      ignore (Atomic.fetch_and_add t.s_delivered (List.length instances));
      Mutex.lock conn.c_mu;
      conn.c_inflight <- false;
      Mutex.unlock conn.c_mu;
      loop ()
    end
  in
  try loop () with
  | Unix.Unix_error _ | Frame.Frame_error _ | Sys_error _ ->
    (* peer went away mid-write; the reader's EOF triggers cleanup *)
    Mutex.lock conn.c_mu;
    conn.c_alive <- false;
    conn.c_inflight <- false;
    Condition.broadcast conn.c_cond;
    Mutex.unlock conn.c_mu

(* --- request handling ------------------------------------------------------ *)

let pool_error_frame = function
  | Shard_pool.Shard_error e ->
    let code =
      match e with
      | Shard_pool.Stopped -> Frame.err_stopped
      | Shard_pool.Degraded _ -> Frame.err_degraded
      | Shard_pool.Overloaded _ | Shard_pool.Dead_lettered _ ->
        Frame.err_overload
      | Shard_pool.Timed_out _ -> Frame.err_degraded
    in
    Frame.Err { code; msg = Shard_pool.error_to_string e }
  | exn -> Frame.Err { code = Frame.err_degraded; msg = Printexc.to_string exn }

(* The events are decoded straight from the received payload, all of them
   before any is ingested: a malformed event rejects the whole batch. *)
let handle_send_many t conn ~trace events =
  match Frame.decode_events events with
  | exception Oodb.Errors.Parse_error m ->
    enqueue_control t conn (Frame.Err { code = Frame.err_request; msg = m })
  | batch ->
    let n = Frame.event_count events in
    (* the frame's trace rides on the shard jobs: wrapping this blocking
       wait in [with_trace] would lend it to every thread of the domain *)
    match Shard_pool.ingest ~wait:true ~trace t.s_pool batch with
    | Ok () ->
      ignore (Atomic.fetch_and_add t.s_events n);
      Obs.Metrics.add st_events n;
      enqueue_control t conn (Frame.Ack { count = n })
    | Error e ->
      enqueue_control t conn (pool_error_frame (Shard_pool.Shard_error e))

let handle_subscribe t conn ~name ~classes ~expr =
  match Events.Codec.decode expr with
  | exception Oodb.Errors.Parse_error m ->
    enqueue_control t conn (Frame.Err { code = Frame.err_request; msg = m })
  | event ->
    if classes = [] then
      enqueue_control t conn
        (Frame.Err
           {
             code = Frame.err_request;
             msg = "subscribe needs at least one class";
           })
    else begin
      let sub_id =
        Mutex.lock t.s_mu;
        let id = t.s_next_sub in
        t.s_next_sub <- id + 1;
        Mutex.unlock t.s_mu;
        id
      in
      (* the action name doubles as the rule-name prefix so a failed
         registration can be rolled back by name on the shards it reached.
         The process-wide sequence keeps names unique across server
         instances sharing one pool, so a reused (conn, sub) pair never
         collides with a subscription another server still holds. *)
      let action =
        Printf.sprintf "__net.%d.c%d.s%d"
          (Atomic.fetch_and_add action_seq 1)
          conn.c_id sub_id
      in
      let rule_name = if name = "" then action else action ^ ":" ^ name in
      let registered =
        Shard_pool.each t.s_pool (fun _i sys ->
            System.register_action sys action (fun _db inst ->
                push_notify t conn sub_id (Events.Codec.encode_instance inst));
            System.create_rule sys ~name:rule_name ~monitor_classes:classes
              ~event ~condition:"true" ~action ())
      in
      match registered with
      | Ok rules ->
        Mutex.lock conn.c_mu;
        conn.c_subs <-
          { sub_id; sub_action = action; sub_rules = rules } :: conn.c_subs;
        Mutex.unlock conn.c_mu;
        Atomic.incr t.s_subs_active;
        enqueue_control t conn (Frame.Sub_ack { sub_id })
      | Error exn ->
        (* roll back the shards that did register before the failure *)
        ignore
          (Shard_pool.each t.s_pool (fun _i sys ->
               (match System.find_rule sys rule_name with
               | Some oid -> System.delete_rule sys oid
               | None -> ());
               System.unregister_action sys action));
        enqueue_control t conn (pool_error_frame exn)
    end

(* Unsubscribe and connection cleanup both end here: the rule and the
   action holding a closure over the connection leave every shard. *)
let delete_sub t sub =
  (* best effort: the pool may already be stopped or degraded *)
  ignore
    (Shard_pool.each t.s_pool (fun i sys ->
         (match List.nth_opt sub.sub_rules i with
         | Some oid -> ( try System.delete_rule sys oid with _ -> ())
         | None -> ());
         System.unregister_action sys sub.sub_action))

let handle_unsubscribe t conn ~sub_id =
  Mutex.lock conn.c_mu;
  let sub = List.find_opt (fun s -> s.sub_id = sub_id) conn.c_subs in
  (match sub with
  | Some _ ->
    conn.c_subs <- List.filter (fun s -> s.sub_id <> sub_id) conn.c_subs
  | None -> ());
  Mutex.unlock conn.c_mu;
  match sub with
  | None ->
    enqueue_control t conn
      (Frame.Err
         {
           code = Frame.err_request;
           msg = Printf.sprintf "unknown subscription %d" sub_id;
         })
  | Some sub ->
    delete_sub t sub;
    ignore (Atomic.fetch_and_add t.s_subs_active (-1));
    enqueue_control t conn (Frame.Ack { count = 1 })

let handle_query t conn ~cls ~pred =
  match Oodb.Query_parser.parse pred with
  | exception Oodb.Errors.Parse_error m ->
    enqueue_control t conn (Frame.Err { code = Frame.err_request; msg = m })
  | p -> (
    let selected =
      Shard_pool.each t.s_pool (fun _i sys ->
          let db = System.db sys in
          Oodb.Query.select db cls p
          |> List.map (fun oid ->
                 let attrs =
                   Oodb.Db.attrs db oid
                   |> List.map (fun (a, v) -> (a, Oodb.Persist.encode_value v))
                 in
                 (Oodb.Oid.to_int oid, Oodb.Db.class_of db oid, attrs)))
    in
    match selected with
    | Ok per_shard ->
      let rows = List.concat per_shard in
      let total = List.length rows in
      let rec chunk acc = function
        | [] -> List.rev (Frame.Query_done { total } :: acc)
        | rows ->
          let rec split i acc rest =
            match rest with
            | [] -> (List.rev acc, [])
            | _ when i >= t.s_flush_max -> (List.rev acc, rest)
            | r :: tl -> split (i + 1) (r :: acc) tl
          in
          let head, rest = split 0 [] rows in
          chunk (Frame.Rows { rows = head } :: acc) rest
      in
      enqueue_controls t conn (chunk [] rows)
    | Error (Oodb.Errors.No_such_class c) ->
      enqueue_control t conn
        (Frame.Err
           {
             code = Frame.err_request;
             msg = Printf.sprintf "no such class %s" c;
           })
    | Error exn -> enqueue_control t conn (pool_error_frame exn))

let handle_frame t conn = function
  | Frame.Hello { version = v; client = _ } ->
    if v <> Frame.version then
      enqueue_control t conn
        (Frame.Err
           {
             code = Frame.err_version;
             msg =
               Printf.sprintf "server speaks protocol %d, client sent %d"
                 Frame.version v;
           })
    else
      enqueue_control t conn
        (Frame.Hello_ack
           { version = Frame.version; shards = Shard_pool.shard_count t.s_pool })
  | Frame.Subscribe { name; classes; expr } ->
    handle_subscribe t conn ~name ~classes ~expr
  | Frame.Unsubscribe { sub_id } -> handle_unsubscribe t conn ~sub_id
  | Frame.Query { cls; pred } -> handle_query t conn ~cls ~pred
  | Frame.Drain ->
    Shard_pool.drain t.s_pool;
    enqueue_control t conn Frame.Drain_done
  | Frame.Stats_req -> enqueue_control t conn (Frame.Stats { text = render_stats t })
  | Frame.Ping { token } -> enqueue_control t conn (Frame.Pong { token })
  | Frame.Send_many _ ->
    (* [Frame.read_request] hands a Send_many over as [Events] *)
    assert false
  | Frame.Hello_ack _ | Frame.Ack _ | Frame.Sub_ack _ | Frame.Notify _
  | Frame.Rows _ | Frame.Query_done _ | Frame.Drain_done | Frame.Stats _
  | Frame.Pong _ | Frame.Err _ ->
    enqueue_control t conn
      (Frame.Err
         {
           code = Frame.err_request;
           msg = "server-to-client message on ingress";
         })

let handle_request t conn = function
  | Frame.Events { trace; events } -> handle_send_many t conn ~trace events
  | Frame.Message m -> handle_frame t conn m

(* --- connection lifecycle -------------------------------------------------- *)

let cleanup t conn =
  let first =
    Mutex.lock conn.c_mu;
    let first = not conn.c_cleaned in
    conn.c_cleaned <- true;
    conn.c_alive <- false;
    Condition.broadcast conn.c_cond;
    let subs = conn.c_subs in
    conn.c_subs <- [];
    Mutex.unlock conn.c_mu;
    if first then Some subs else None
  in
  match first with
  | None -> ()
  | Some subs ->
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    List.iter (fun sub -> delete_sub t sub) subs;
    ignore (Atomic.fetch_and_add t.s_subs_active (-(List.length subs)));
    Mutex.lock t.s_mu;
    t.s_conns <- List.filter (fun c -> c.c_id <> conn.c_id) t.s_conns;
    Mutex.unlock t.s_mu

let reader_loop t conn =
  let rec loop () =
    match Frame.read_request conn.c_fd with
    | exception End_of_file -> ()
    | exception Frame.Version_mismatch v ->
      (* reply before closing so the client can tell this from a drop *)
      enqueue_control t conn
        (Frame.Err
           {
             code = Frame.err_version;
             msg =
               Printf.sprintf "server speaks protocol %d, client sent %d"
                 Frame.version v;
           });
      flush_control conn ~timeout_s:1.0
    | exception Frame.Frame_error m ->
      enqueue_control t conn (Frame.Err { code = Frame.err_frame; msg = m });
      flush_control conn ~timeout_s:1.0
    | exception Unix.Unix_error _ -> ()
    | req, nbytes ->
      Atomic.incr t.s_frames_in;
      ignore (Atomic.fetch_and_add t.s_bytes_in nbytes);
      Obs.Metrics.hit st_frames_in;
      Obs.Metrics.add st_bytes_in nbytes;
      handle_request t conn req;
      loop ()
  in
  (try loop () with _ -> ());
  cleanup t conn

let spawn_conn t fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (match t.s_so_sndbuf with
  | Some n -> (
    try Unix.setsockopt_int fd Unix.SO_SNDBUF n with Unix.Unix_error _ -> ())
  | None -> ());
  let conn =
    Mutex.lock t.s_mu;
    let id = t.s_next_conn in
    t.s_next_conn <- id + 1;
    t.s_accepted <- t.s_accepted + 1;
    let conn =
      {
        c_id = id;
        c_fd = fd;
        c_mu = Mutex.create ();
        c_cond = Condition.create ();
        c_control = Queue.create ();
        c_notify = Queue.create ();
        c_parked = Queue.create ();
        c_subs = [];
        c_alive = true;
        c_cleaned = false;
        c_inflight = false;
        c_reader = None;
        c_writer = None;
      }
    in
    t.s_conns <- conn :: t.s_conns;
    Mutex.unlock t.s_mu;
    conn
  in
  Obs.Metrics.hit st_connections;
  conn.c_writer <- Some (Thread.create (fun () -> writer_loop t conn) ());
  conn.c_reader <- Some (Thread.create (fun () -> reader_loop t conn) ())

let accept_loop t =
  let rec loop () =
    match retry_eintr (fun () -> Unix.accept t.s_listen) with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error _ -> if t.s_alive then loop ()
    | fd, _addr ->
      if t.s_alive then begin
        spawn_conn t fd;
        loop ()
      end
      else Unix.close fd
  in
  loop ()

(* --- creation / shutdown --------------------------------------------------- *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      invalid_arg (Printf.sprintf "Server.create: cannot resolve %s" host))

let create ?(host = "127.0.0.1") ?(port = 0) ?(backlog = 64)
    ?(outlet_capacity = 1024)
    ?(outlet_policy = Shard_pool.Block { max_wait_ms = 100 })
    ?(parked_limit = 1024) ?(flush_max = 64) ?so_sndbuf ~pool () =
  if outlet_capacity < 1 then invalid_arg "Server.create: outlet_capacity < 1";
  if flush_max < 1 then invalid_arg "Server.create: flush_max < 1";
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    {
      s_pool = pool;
      s_listen = fd;
      s_port = bound_port;
      s_capacity = outlet_capacity;
      s_policy = outlet_policy;
      s_parked_limit = parked_limit;
      s_flush_max = flush_max;
      s_so_sndbuf = so_sndbuf;
      s_mu = Mutex.create ();
      s_conns = [];
      s_alive = true;
      s_accept = None;
      s_next_conn = 0;
      s_next_sub = 0;
      s_accepted = 0;
      s_frames_in = Atomic.make 0;
      s_frames_out = Atomic.make 0;
      s_bytes_in = Atomic.make 0;
      s_bytes_out = Atomic.make 0;
      s_events = Atomic.make 0;
      s_subs_active = Atomic.make 0;
      s_produced = Atomic.make 0;
      s_enqueued = Atomic.make 0;
      s_delivered = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_errors = Atomic.make 0;
    }
  in
  t.s_accept <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  let conns =
    Mutex.lock t.s_mu;
    let was_alive = t.s_alive in
    t.s_alive <- false;
    let conns = t.s_conns in
    Mutex.unlock t.s_mu;
    if was_alive then Some conns else None
  in
  match conns with
  | None -> ()
  | Some conns ->
    (* a blocked accept() is not woken by close(); shut the listener down
       and poke it with a throwaway connection, then close after the join *)
    (try Unix.shutdown t.s_listen Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.s_port))
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    List.iter (fun conn -> cleanup t conn) conns;
    (match t.s_accept with Some th -> Thread.join th | None -> ());
    (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
    List.iter
      (fun conn ->
        (match conn.c_reader with Some th -> Thread.join th | None -> ());
        match conn.c_writer with Some th -> Thread.join th | None -> ())
      conns

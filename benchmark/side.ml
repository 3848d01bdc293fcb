(* The open-loop side channel every workload carries next to its write
   stream: reads and rule operations issued on a fixed schedule,
   whatever the program's speed.  Each operation is timed from the moment it
   was due, not from when it was sent, so a stall shows as latency on every
   operation queued behind it; [lag] records how late the generator ran. *)

type t = {
  read_period : float;  (** µs between due reads *)
  rule_period : float;  (** µs between due rule operations; infinite = none *)
  mutable next_read : float;
  mutable next_rule : float;
  query : unit -> Gen.query;  (** the next read to issue *)
  read : Gen.query -> Oodb.Value.t list;  (** the rows' [attr] values *)
  rule_op : unit -> unit;
  reads : Lat.t;
  rule_ops : Lat.t;
  lag : Samples.t;  (** µs between an operation's due time and its start *)
  mutable attempted : int;
  mutable failed : int;
  mutable rows : int;
  mutable bad_rows : int;  (** rows failing their read's test *)
  mutable first_error : string option;
}

let period per_s = if per_s <= 0. then Float.infinity else 1e6 /. per_s

let create ~query ~reads_per_s ~rule_ops_per_s ~read ~rule_op =
  let now = Spans.now_us () in
  let read_period = period reads_per_s and rule_period = period rule_ops_per_s in
  {
    read_period;
    rule_period;
    next_read = now;
    next_rule = (if Float.is_finite rule_period then now else Float.infinity);
    query;
    read;
    rule_op;
    reads = Lat.create ();
    rule_ops = Lat.create ();
    lag = Samples.create ();
    attempted = 0;
    failed = 0;
    rows = 0;
    bad_rows = 0;
    first_error = None;
  }

let next_due t = Float.min t.next_read t.next_rule

(* Run one operation due at [due]; a failure counts as missing every latency
   limit. *)
let run_one t ~due ~name ~lat f =
  let traced = Spans.enabled () in
  let start = Spans.now_us () in
  let ok =
    match f () with
    | () -> true
    | exception e ->
      if t.first_error = None then t.first_error <- Some (Printexc.to_string e);
      false
  in
  let fin = Spans.now_us () in
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  Samples.add t.lag (start -. due);
  Lat.add lat ~start:due ~traced (if ok then fin -. due else Float.infinity);
  if traced then Spans.add ~trace:t.attempted name due fin

(* Run every operation that is due by now, oldest first. *)
let run_due t =
  let rec loop () =
    let now = Spans.now_us () in
    if t.next_read <= now && t.next_read <= t.next_rule then begin
      let due = t.next_read in
      t.next_read <- due +. t.read_period;
      let q = t.query () in
      run_one t ~due ~name:"side.read" ~lat:t.reads (fun () ->
          let values = t.read q in
          t.rows <- t.rows + List.length values;
          List.iter
            (fun v -> if not (q.ok v) then t.bad_rows <- t.bad_rows + 1)
            values);
      loop ()
    end
    else if t.next_rule <= now then begin
      let due = t.next_rule in
      t.next_rule <- due +. t.rule_period;
      run_one t ~due ~name:"side.rule_op" ~lat:t.rule_ops t.rule_op;
      loop ()
    end
  in
  loop ()

(* A side-channel thread of its own: sleep until the next due time, run what
   is due, until [stop ()]. *)
let run_until t ~stop =
  while not (stop ()) do
    let wait = next_due t -. Spans.now_us () in
    if wait > 0. then Thread.delay (Float.min wait 10_000. /. 1e6);
    run_due t
  done

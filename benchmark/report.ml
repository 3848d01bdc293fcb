(* What a run measured, how it is printed, and the environment it ran in. *)

type plan = {
  seed : int;
  seconds : float;  (** how long the main phase measures *)
  traced : bool;
  smoke : bool;  (** about 1% of every size, bounded by event count *)
  out : string;  (** results, traces and WAL files go under here *)
}

(* A size of the full benchmark, or about 1% of it under --smoke. *)
let size plan n = if plan.smoke then max 8 (n / 100) else n

(* The event count that ends a smoke run; a measured run ends on time. *)
let max_events plan n = if plan.smoke then n / 100 else max_int

(* Every metric, by name, with its unit.  BENCHMARK.json lists the same
   names with their directions; benchmark/README.md says what each one
   means. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("write_p50_us", "us");
    ("write_p90_us", "us");
    ("read_p50_us", "us");
    ("read_p90_us", "us");
    ("rule_op_p50_us", "us");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("frame.encode_us_per_batch", "us");
    ("frame.decode_us_per_batch", "us");
    ("frame.bytes_per_event", "B");
    ("net.self_p50_us", "us");
    ("pool.ingest_p50_us", "us");
    ("pool.self_p50_us", "us");
    ("pool.pushes_per_flush", "count");
    ("pool.query_wait_p50_us", "us");
    ("system.ingest_p50_us", "us");
    ("oodb.send_bare_p50_us", "us");
    ("rule.conditions_per_event", "count");
    ("rule.actions_per_event", "count");
    ("route.candidates_per_event", "count");
    ("route.offered_per_candidate", "ratio");
    ("route.coalesced_per_event", "count");
    ("detector.fed_per_event", "count");
    ("detector.signalled_per_fed", "ratio");
    ("wal.seal_p50_us", "us");
    ("wal.seal_p99_us", "us");
    ("wal.seals_per_flush", "count");
    ("wal.fsyncs_per_event", "count");
    ("wal.bytes_per_event", "B");
    ("query.select_p50_us", "us");
    ("query.probes_per_row", "count");
    ("gen.lag_p99_ms", "ms");
    ("trace.overhead_pct", "%");
    ("reconcile.residual_pct", "%");
  ]

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

type t = {
  workload : string;
  metrics : (string * float) list;  (** every metric the run could measure *)
  window : Window.t;  (** the windows the end-to-end metrics come from *)
  all_windows : (string * float) list;
      (** the end-to-end metrics over every window, for the record *)
  attempted : int;  (** operations of every kind *)
  failed : int;
  checks : check list;
  counts : (string * int) list;  (** operation counts, for the record *)
  setup_runs : float list;  (** seconds, one per set-up *)
  latencies : (string * Samples.t) list;
      (** µs, the untraced operations the end-to-end latencies come from *)
  self_times : (string * Samples.t) list;  (** µs, from the traced run *)
}

let correct r = List.for_all (fun c -> c.ok) r.checks && r.failed = 0

(* The untraced latencies of operations started in a window [window]
   keeps. *)
let kept_latencies ~window ~write ~reads ~rule_ops =
  let keep = Window.kept window in
  List.map
    (fun (name, l) -> (name, Lat.select l ~keep ~traced:false))
    [ ("write", write); ("read", reads); ("rule_op", rule_ops) ]

(* The end-to-end metrics over the windows [window] keeps: throughput from
   every write started there, latencies from the untraced operations only. *)
let end_to_end_values ~setup_runs ~window ~events_per_write ~write ~reads
    ~rule_ops ~peak_rss =
  let lat = kept_latencies ~window ~write ~reads ~rule_ops in
  let pct op p = Samples.percentile (List.assoc op lat) p in
  let writes = Samples.count (Lat.select write ~keep:(Window.kept window)) in
  [
    ("setup_s", Samples.median setup_runs);
    ("events_per_s", float_of_int (writes * events_per_write) /. Window.seconds window);
    ("write_p50_us", pct "write" 50.);
    ("write_p90_us", pct "write" 90.);
    ("read_p50_us", pct "read" 50.);
    ("read_p90_us", pct "read" 90.);
    ("rule_op_p50_us", pct "rule_op" 50.);
    ("peak_rss_mb", peak_rss);
  ]

(* One set-up from scratch and its seconds. *)
let timed_setup setup =
  Gc.compact ();
  let t0 = Spans.now_us () in
  let x = setup () in
  (x, (Spans.now_us () -. t0) /. 1e6)

(* Every set-up's seconds: [first], the one the measured phase ran on, then
   more set-ups (each torn down at once) until there are at least 7 and
   they took at least a second, at most 51 (2 under --smoke), so that
   setup_s is a median over enough set-ups even when one takes a few
   milliseconds.  They run after the measured phase, which so runs in a
   process that has set up only once. *)
let more_setups plan ~first ~setup ~teardown =
  let min_n, max_n, budget = if plan.smoke then (2, 2, 0.) else (7, 51, 1.) in
  let rec go times spent =
    let n = List.length times in
    if n >= max_n || (n >= min_n && spent >= budget) then List.rev times
    else begin
      let x, s = timed_setup setup in
      teardown x;
      go (s :: times) (spent +. s)
    end
  in
  go [ first ] first

(* The metrics this run reports: end-to-end untraced, per-layer traced. *)
let reported plan = if plan.traced then per_layer else end_to_end

(* --- environment -------------------------------------------------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some c -> c
    | None ->
      (* a packed ref: "<sha> <ref>" lines *)
      Option.value ~default:"unknown"
        (Option.bind (read_file ".git/packed-refs") (fun packed ->
             List.find_map
               (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
               (String.split_on_char '\n' packed))))
  | Some sha -> sha

(* The filesystem type the WAL files live on, from /proc/mounts. *)
let filesystem dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let under mnt =
    mnt = "/" || path = mnt
    || String.starts_with ~prefix:(mnt ^ "/") path
  in
  match read_file "/proc/mounts" with
  | None -> "unknown"
  | Some mounts ->
    String.split_on_char '\n' mounts
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | _ :: mnt :: fs :: _ when under mnt -> Some (String.length mnt, fs)
           | _ -> None)
    |> List.sort compare |> List.rev
    |> (function (_, fs) :: _ -> fs | [] -> "unknown")

(* Peak resident set (VmHWM) of this process, MB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
               (fun kb -> Some (float_of_int kb /. 1024.))
           else None)
    |> Option.value ~default:Float.nan

(* --- output ------------------------------------------------------------- *)

(* A failed operation's latency is infinite, so a percentile it reaches
   prints as the largest double; an empty sample (nan) prints as 0 and fails
   the run's "every metric measured" check. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else if Float.is_nan x then "0"
  else if x > 0. then "1.7976931348623157e308"
  else "-1.7976931348623157e308"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metric_value r name =
  match List.assoc_opt name r.metrics with Some v -> v | None -> Float.nan

let metric_json r (name, unit) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
    (json_num (metric_value r name))
    (json_str unit)

(* The last line of standard output: one JSON object with the metrics this
   run reports. *)
let contract_line plan r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) (max 1 r.attempted) r.failed
    (String.concat ", " (List.map (metric_json r) (reported plan)))

(* [metric]'s value in a line [contract_line] printed. *)
let value_in_line line metric =
  let key = json_str metric ^ ": {\"value\": " in
  let rec find i =
    if i + String.length key > String.length line then Float.nan
    else if String.sub line i (String.length key) = key then
      let j = i + String.length key in
      let k = String.index_from line j ',' in
      float_of_string (String.sub line j (k - j))
    else find (i + 1)
  in
  find 0

let print_human plan r =
  Printf.printf "== %s (seed %d, %s)\n" r.workload plan.seed
    (if plan.traced then "traced" else "untraced");
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-28s %16.4f %s\n" name (metric_value r name) unit)
    (reported plan);
  List.iter
    (fun c ->
      Printf.printf "  check %-40s %s%s\n" c.what
        (if c.ok then "ok" else "FAILED")
        (if c.detail = "" then "" else "  (" ^ c.detail ^ ")"))
    r.checks;
  if r.self_times <> [] then begin
    Printf.printf "  %-28s %12s %8s\n" "span self time" "p50 us" "count";
    List.iter
      (fun (name, s) ->
        Printf.printf "  %-28s %12.2f %8d\n" name (Samples.percentile s 50.)
          (Samples.count s))
      r.self_times
  end

let write_results plan r ~flush_policy =
  let path =
    Filename.concat plan.out
      (Printf.sprintf "%s%s.json" r.workload (if plan.traced then ".traced" else ""))
  in
  let kv l f = String.concat ", " (List.map f l) in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"workload\": %s,\n" (json_str r.workload);
  Printf.fprintf oc
    "  \"environment\": {\"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \
     \"seed\": %d, \"seconds\": %s, \"traced\": %b, \"smoke\": %b, \
     \"wal_filesystem\": %s, \"flush_policy\": %s},\n"
    (Domain.recommended_domain_count ())
    (json_str Sys.ocaml_version) (json_str (git_commit ())) plan.seed
    (json_num plan.seconds) plan.traced plan.smoke
    (json_str (filesystem plan.out))
    (json_str flush_policy);
  Printf.fprintf oc "  \"counts\": {%s},\n"
    (kv r.counts (fun (k, v) -> Printf.sprintf "%s: %d" (json_str k) v));
  Printf.fprintf oc "  \"setup_runs_s\": [%s],\n" (kv r.setup_runs json_num);
  Printf.fprintf oc "  \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n"
    (correct r) r.attempted r.failed;
  Printf.fprintf oc "  \"end_to_end\": {%s},\n" (kv end_to_end (metric_json r));
  Printf.fprintf oc "  \"latency_us\": {%s},\n"
    (kv r.latencies (fun (op, s) ->
         Printf.sprintf "%s: {\"count\": %d, %s}" (json_str op) (Samples.count s)
           (kv [ 50.; 90.; 95.; 99. ] (fun p ->
                Printf.sprintf "\"p%g\": %s" p (json_num (Samples.percentile s p))))));
  Printf.fprintf oc "  \"end_to_end_all_windows\": {%s},\n"
    (kv end_to_end (metric_json { r with metrics = r.all_windows }));
  Printf.fprintf oc "  \"window_writes\": [%s],\n"
    (kv (Array.to_list (Array.map2 (fun n k -> (n, k)) r.window.writes r.window.keep))
       (fun (n, k) -> Printf.sprintf "{\"writes\": %d, \"kept\": %b}" n k));
  Printf.fprintf oc "  \"per_layer\": {%s},\n"
    (if plan.traced then kv per_layer (metric_json r) else "");
  Printf.fprintf oc "  \"self_time_p50_us\": {%s},\n"
    (kv r.self_times (fun (n, s) ->
         Printf.sprintf "%s: {\"p50\": %s, \"count\": %d}" (json_str n)
           (json_num (Samples.percentile s 50.))
           (Samples.count s)));
  Printf.fprintf oc "  \"checks\": [%s]\n}\n"
    (kv r.checks (fun c ->
         Printf.sprintf "{\"what\": %s, \"ok\": %b, \"detail\": %s}"
           (json_str c.what) c.ok (json_str c.detail)));
  close_out oc

(* --repeat's summary, [<out>/repeat.json]: each metric's quartiles over
   the runs, per workload. *)
let write_repeat plan ~runs summaries =
  let kv l f = String.concat ", " (List.map f l) in
  let oc = open_out (Filename.concat plan.out "repeat.json") in
  Printf.fprintf oc
    "{\n  \"environment\": {\"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \
     \"first_seed\": %d, \"runs\": %d, \"seconds\": %s, \"traced\": %b},\n"
    (Domain.recommended_domain_count ())
    (json_str Sys.ocaml_version) (json_str (git_commit ())) plan.seed runs
    (json_num plan.seconds) plan.traced;
  Printf.fprintf oc "  \"workloads\": {%s}\n}\n"
    (kv summaries (fun (name, metrics) ->
         Printf.sprintf "\n    %s: {%s}" (json_str name)
           (kv metrics (fun (m, unit, q1, med, q3) ->
                Printf.sprintf
                  "\n      %s: {\"unit\": %s, \"q1\": %s, \"median\": %s, \"q3\": %s, \"spread\": %s}"
                  (json_str m) (json_str unit) (json_num q1) (json_num med) (json_num q3)
                  (json_num ((q3 -. q1) /. Float.abs med))))));
  close_out oc

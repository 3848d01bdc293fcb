(* The benchmark of record.

     dune exec benchmark/main.exe -- --workload W --seed N [--seconds S]
       [--trace 0|1 | --traced] [--smoke] [--repeat N] [--out DIR]

   Runs one workload (or all three when --workload is omitted), prints every
   metric by name with its unit, writes the results (and, traced, a Chrome
   trace) under --out, and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  Exits non-zero when a
   correctness check fails.  See benchmark/README.md. *)

let workloads =
  [
    ("wire_ingest", fun plan -> Wire_workloads.run plan Wire_workloads.wire_ingest);
    ("rules_dense", Rules_dense.run);
    ("wire_mixed", fun plan -> Wire_workloads.run plan Wire_workloads.wire_mixed);
  ]

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let run_one (plan : Report.plan) name =
  let run = List.assoc name workloads in
  Spans.clear ();
  let r = run plan in
  let spans = Spans.all () in
  let unmeasured =
    List.filter_map
      (fun (metric, _) ->
        if Float.is_nan (Report.metric_value r metric) then Some metric else None)
      (Report.reported plan)
  in
  let r =
    {
      r with
      Report.self_times = Spans.self_times spans;
      checks =
        r.checks
        @ [
            Report.check "every reported metric was measured" (unmeasured = [])
              (String.concat ", " unmeasured);
          ];
    }
  in
  if plan.traced then
    Spans.write_chrome
      (Filename.concat plan.out (name ^ ".trace.json"))
      spans;
  Report.write_results plan r ~flush_policy:Wire.flush_policy;
  Report.print_human plan r;
  r

(* --repeat: run the workload as N child processes, seeds seed .. seed+N-1,
   and print each reported metric's median and quartiles.  Returns the
   summary and whether every run was correct. *)
let repeat (plan : Report.plan) name n =
  let runs =
    List.init n (fun i ->
        let args =
          [|
            Sys.executable_name; "--workload"; name; "--seed";
            string_of_int (plan.seed + i); "--seconds"; Printf.sprintf "%g" plan.seconds;
            "--trace"; (if plan.traced then "1" else "0"); "--out"; plan.out;
          |]
        in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let out = In_channel.input_all ic in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        let lines = String.split_on_char '\n' (String.trim out) in
        (List.nth lines (List.length lines - 1), status = Unix.WEXITED 0))
  in
  let lines = List.map fst runs in
  Printf.printf "== %s: %d runs, seeds %d..%d\n" name n plan.seed (plan.seed + n - 1);
  Printf.printf "  %-28s %14s %14s %14s %8s\n" "metric" "q1" "median" "q3" "iqr/med";
  let summary =
    List.map
      (fun (metric, unit) ->
        let q1, med, q3 =
          Samples.quartiles (List.map (fun l -> Report.value_in_line l metric) lines)
        in
        Printf.printf "  %-28s %14.4f %14.4f %14.4f %7.2f%%  %s\n" metric q1 med q3
          (100. *. (q3 -. q1) /. med) unit;
        (metric, unit, q1, med, q3))
      (Report.reported plan)
  in
  List.iter print_endline lines;
  ((name, summary), List.for_all snd runs)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. in
  let traced = ref false and smoke = ref false and reps = ref 1 in
  let out = ref "benchmark-out" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W wire_ingest | rules_dense | wire_mixed (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase (default 25)");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 1 = the traced run (per-layer metrics)");
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--smoke", Arg.Set smoke, " every workload at about 1% size, traced, all checks on");
      ("--repeat", Arg.Set_int reps, "N run N seeds in child processes; print medians and quartiles");
      ("--out", Arg.Set_string out, "DIR results, traces and WAL files (default benchmark-out)");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  let names =
    match !workload with
    | "" -> List.map fst workloads
    | w when List.mem_assoc w workloads -> [ w ]
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  mkdir_p !out;
  (* The WAL's CRC-32 table is a lazy value built on first use.  When the
     first two group seals of a process run on two shard domains at once,
     OCaml 5 raises CamlinternalLazy.Undefined in one of them, and that
     seal's commits are dropped from the log (the recovery check then fails
     about one run in four).  Building the table here, before any pool
     exists, keeps that first-use race out of the measurements. *)
  ignore (Oodb.Storage.Crc32.string "");
  let plan =
    {
      Report.seed = !seed;
      seconds = (if !smoke then 60. else !seconds);
      traced = !traced || !smoke;
      smoke = !smoke;
      out = !out;
    }
  in
  if !reps > 1 then begin
    let results = List.map (fun name -> repeat plan name !reps) names in
    Report.write_repeat plan ~runs:!reps (List.map fst results);
    if not (List.for_all snd results) then exit 1
  end
  else begin
    let results = List.map (run_one plan) names in
    List.iter (fun r -> print_endline (Report.contract_line plan r)) results;
    if not (List.for_all Report.correct results) then exit 1
  end

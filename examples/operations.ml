(* Operating a Sentinel store: the administration & tooling tour.

   - runtime schema evolution: promote a passive legacy method to an event
     generator, add an attribute with backfill;
   - static rule analysis: triggering graph, termination verdict;
   - execution audit: committed firings as queryable objects;
   - atomic units of work: a failed one rolls back, rule effects included;
   - integrity verification and reachability GC;
   - WAL checkpointing.

   Run with: dune exec examples/operations.exe *)

module Db = Oodb.Db
module Value = Oodb.Value
module Schema = Oodb.Schema
module System = Sentinel.System
module Expr = Events.Expr

let () =
  let db = Db.create () in
  let sys = System.create db in

  (* A legacy class designed with no monitoring in mind. *)
  Db.define_class db
    (Schema.define "device"
       ~attrs:[ ("name", Value.Str ""); ("temp", Value.Float 20.) ]
       ~methods:[ ("report_temp", Workloads.Dsl.setter "temp") ]);
  let boiler = Db.new_object db "device" ~attrs:[ ("name", Value.Str "boiler") ] in

  print_endline "== schema evolution ==";
  let backfilled =
    Oodb.Evolution.add_attribute db ~cls:"device" ~attr:"alarm_count"
      ~default:(Value.Int 0)
  in
  Printf.printf "added device.alarm_count, backfilled %d instance(s)\n" backfilled;
  Oodb.Evolution.add_event_generator db ~cls:"device" ~meth:"report_temp"
    Schema.On_end;
  print_endline "promoted report_temp to an event generator at runtime";

  (* Rules over the evolved class; actions declare their effects for the
     static analysis. *)
  System.register_condition sys "too-hot" (fun db inst ->
      match inst.Events.Detector.constituents with
      | [ occ ] ->
        ignore db;
        Value.to_float (List.hd occ.params) > 90.
      | _ -> false);
  System.register_action sys "raise-alarm"
    (fun db inst ->
      match inst.Events.Detector.constituents with
      | [ occ ] ->
        let n = Value.to_int (Db.get db occ.source "alarm_count") in
        Db.set db occ.source "alarm_count" (Value.Int (n + 1))
      | _ -> ());
  let rule =
    System.create_rule sys ~name:"overheat" ~monitor_classes:[ "device" ]
      ~event:(Events.Parser.parse "end device::report_temp where $0 > 90")
      ~condition:"true" ~action:"raise-alarm" ()
  in
  ignore rule;

  (* a deliberately looping pair so the analysis has something to flag:
     re-probe's action declares it may send report_temp again *)
  System.register_action sys
    ~may_send:[ ("report_temp", Oodb.Types.After) ]
    "re-probe"
    (fun _ _ -> ());
  let reprobe =
    System.create_rule sys ~name:"re-probe-loop" ~enabled:false
      ~event:(Expr.eom ~cls:"device" "report_temp")
      ~condition:"true" ~action:"re-probe" ()
  in
  print_endline "\n== static analysis ==";
  Format.printf "%a" Sentinel.Analysis.pp_report sys;
  System.delete_rule sys reprobe;
  print_endline "after deleting the looping rule:";
  Format.printf "%a" Sentinel.Analysis.pp_report sys;

  print_endline "\n== audit ==";
  let audit = Sentinel.Audit.attach ~persist:true sys in
  ignore (Db.send db boiler "report_temp" [ Value.Float 50. ]); (* filtered out *)
  ignore (Db.send db boiler "report_temp" [ Value.Float 95. ]);
  ignore (Db.send db boiler "report_temp" [ Value.Float 99. ]);
  Printf.printf "in-memory audit entries: %d; persistent firing objects: %d\n"
    (Sentinel.Audit.count audit)
    (List.length (Sentinel.Audit.stored_firings sys));
  Printf.printf "boiler alarm_count = %s\n"
    (Value.to_string (Db.get db boiler "alarm_count"));

  print_endline "\n== atomic units of work ==";
  let show label =
    Printf.printf "%s: temp = %s, alarm_count = %s\n" label
      (Value.to_string (Db.get db boiler "temp"))
      (Value.to_string (Db.get db boiler "alarm_count"))
  in
  show "before";
  (* the overheat rule fires inside the unit; the failure that follows
     rolls back its alarm along with the reading *)
  (match
     Oodb.Transaction.atomically db (fun () ->
         ignore (Db.send db boiler "report_temp" [ Value.Float 120. ]);
         show "inside";
         failwith "sensor calibration failed")
   with
  | Ok () -> print_endline "committed (unexpected!)"
  | Error e -> Printf.printf "aborted: %s\n" (Printexc.to_string e));
  show "after";

  print_endline "\n== integrity and garbage ==";
  (match Oodb.Verify.check ~quiescent:true db with
  | Ok () -> print_endline "integrity check: OK"
  | Error ps -> List.iter print_endline ps);
  for _ = 1 to 5 do
    ignore (Db.new_object db "device")
  done;
  let collected = Oodb.Gc.collect db ~roots:[ boiler ] in
  Printf.printf "GC collected %d unreachable object(s); rules survive (class \
                 consumers are roots)\n"
    collected;
  (match Oodb.Verify.check ~quiescent:true db with
  | Ok () -> print_endline "integrity after GC: OK"
  | Error ps -> List.iter print_endline ps);

  print_endline "\n== WAL checkpoint ==";
  let wal_path = Filename.temp_file "ops" ".wal" in
  let snap_path = Filename.temp_file "ops" ".db" in
  let wal = Oodb.Wal.attach db wal_path in
  ignore (Db.send db boiler "report_temp" [ Value.Float 91. ]);
  Printf.printf "1 update logged: %d batch(es) in the WAL\n"
    (Oodb.Wal.batches_written wal);
  Oodb.Wal.checkpoint wal ~snapshot:snap_path;
  Printf.printf "checkpointed to %s; log truncated\n" (Filename.basename snap_path);
  Oodb.Wal.detach wal;
  Sys.remove wal_path;
  Sys.remove snap_path;
  print_endline "done."

(* Shared fixtures and Alcotest testables for the suites. *)

module Db = Oodb.Db
module Value = Oodb.Value
module Oid = Oodb.Oid
module Schema = Oodb.Schema
module Errors = Oodb.Errors
module Transaction = Oodb.Transaction
module Expr = Events.Expr
module Detector = Events.Detector
module Context = Events.Context
module System = Sentinel.System

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let oid : Oid.t Alcotest.testable = Alcotest.testable Oid.pp Oid.equal

let occurrence : Oodb.Occurrence.t Alcotest.testable =
  Alcotest.testable Oodb.Occurrence.pp Oodb.Occurrence.equal

let check_raises_any msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" msg
  | exception _ -> ()

let test name f = Alcotest.test_case name `Quick f

(* The path of a file under test/fixtures. *)
let fixture name =
  (* cwd is test/ under `dune runtest`, the workspace root under exec *)
  let candidates =
    [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "fixture %s not found from %s" name (Sys.getcwd ())

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* A database with the Figure 8 employee/manager schema installed. *)
let employee_db () =
  let db = Db.create () in
  Workloads.Payroll.install db;
  db

let new_employee ?(cls = "employee") ?(salary = 1000.) ?(name = "emp") db =
  Db.new_object db cls
    ~attrs:[ ("name", Value.Str name); ("salary", Value.Float salary) ]

(* A database + system + an occurrence-collecting notifiable. *)
let sys_with_collector () =
  let db = employee_db () in
  let sys = System.create db in
  let seen : Oodb.Occurrence.t list ref = ref [] in
  let collector =
    System.create_notifiable sys ~name:"collector" (fun occ ->
        seen := occ :: !seen)
  in
  (db, sys, collector, fun () -> List.rev !seen)

(* Feed a detector a hand-made occurrence stream.  Timestamps auto-increment
   from 1 unless given. *)
let mk_occ ?(source = 1) ?(cls = "employee") ?(params = []) ~at meth modifier =
  Oodb.Occurrence.make ~source:(Oid.of_int source) ~source_class:cls ~meth
    ~modifier ~params ~at

let detect ?context ?subsumes expr stream =
  let signals = ref [] in
  let d =
    Detector.create ?context ?subsumes
      ~on_signal:(fun i -> signals := i :: !signals)
      expr
  in
  List.iter (Detector.feed d) stream;
  (d, List.rev !signals)

(* Constituent methods of a detected instance, chronological. *)
let shape (i : Detector.instance) =
  List.map (fun (o : Oodb.Occurrence.t) -> (o.meth, o.at)) i.constituents

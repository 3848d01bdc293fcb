(* The benchmark's own tracer.  Spans are recorded only around calls the
   benchmark makes into the program (and inside jobs it hands to a shard),
   never inside the program, so a traced run measures the same code an
   untraced run does.  Spans stay in memory until the run ends, then go out
   as one Chrome trace file. *)

type span = {
  name : string;
  trace : int;  (** batch or query index; 0 when the span has no batch *)
  id : int;
  parent : int;  (** 0 at a root *)
  tid : int;
  ts : float;  (** start, µs on the monotonic clock *)
  dur : float;  (** µs *)
}

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b
let mu = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1
let now_us = Obs.Clock.now_us

let add ?(parent = 0) ?id ~trace name t0 t1 =
  let id =
    match id with Some id -> id | None -> Atomic.fetch_and_add next_id 1
  in
  let tid = ((Domain.self () :> int) * 1000) + Thread.id (Thread.self ()) in
  let s = { name; trace; id; parent; tid; ts = t0; dur = t1 -. t0 } in
  Mutex.lock mu;
  recorded := s :: !recorded;
  Mutex.unlock mu

(* [span ~trace name f] runs [f id] inside a span whose id children can name
   as their parent, and returns [f]'s result with the span's duration in µs.
   The duration is measured whether or not tracing is on. *)
let span ?parent ~trace name f =
  let id = if enabled () then Atomic.fetch_and_add next_id 1 else 0 in
  let t0 = now_us () in
  let v = f id in
  let t1 = now_us () in
  if id <> 0 then add ?parent ~id ~trace name t0 t1;
  (v, t1 -. t0)

let clear () =
  Mutex.lock mu;
  recorded := [];
  Mutex.unlock mu

let all () =
  Mutex.lock mu;
  let l = !recorded in
  Mutex.unlock mu;
  List.rev l

(* Self time: a span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  let self s =
    let lo = s.ts and hi = s.ts +. s.dur in
    let kids =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (Float.max lo c.ts, Float.min hi (c.ts +. c.dur)))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, upto) (a, b) ->
          let a = Float.max a upto in
          if b > a then (acc +. (b -. a), b) else (acc, upto))
        (0., lo) kids
    in
    s.dur -. covered
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let buf =
        match Hashtbl.find_opt by_name s.name with
        | Some b -> b
        | None ->
          let b = Samples.create () in
          Hashtbl.add by_name s.name b;
          b
      in
      Samples.add buf (self s))
    spans;
  Hashtbl.fold (fun name b acc -> (name, b) :: acc) by_name []
  |> List.sort compare

let write_chrome path spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%d,\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.tid s.ts s.dur s.trace s.id s.parent)
    spans;
  output_string oc "\n]}\n";
  close_out oc

(* Latency samples of one operation type.  Each sample keeps the time its
   operation started and whether tracing was on then: a traced run alternates
   tracing on and off so that both halves measure the same stretch of the
   workload, and the report picks samples by the window they started in. *)

type t = { value : Samples.t; start : Samples.t; traced : Samples.t }

let create () =
  { value = Samples.create (); start = Samples.create (); traced = Samples.create () }

let add t ~start ~traced x =
  Samples.add t.value x;
  Samples.add t.start start;
  Samples.add t.traced (if traced then 1. else 0.)

let merge ts =
  let cat f = Samples.concat (List.map f ts) in
  { value = cat (fun t -> t.value); start = cat (fun t -> t.start); traced = cat (fun t -> t.traced) }

let count t = Samples.count t.value

(* The samples whose operation started at a time [keep] accepts; with
   [traced], only those with tracing on (true) or off (false). *)
let select ?traced t ~keep =
  let r = Samples.create () in
  let wanted i =
    match traced with
    | None -> true
    | Some b -> t.traced.Samples.data.(i) = if b then 1. else 0.
  in
  for i = 0 to count t - 1 do
    if wanted i && keep t.start.Samples.data.(i) then
      Samples.add r t.value.Samples.data.(i)
  done;
  r

(* Which stretches of the measured phase the end-to-end metrics come from.

   The phase is cut into 250 ms windows.  On a small machine shared with
   other tenants, interference comes and goes within seconds and only ever
   slows a window down, so the metrics are computed from the quietest
   quarter of the windows: those in which at least the 75th percentile of
   the windows' write counts started.  A program stall that hits fewer than
   three windows in four is hidden by this choice; the results file also
   records every metric over all windows. *)

type t = {
  start : float;
  width : float;
  writes : int array;  (** write operations started in each window *)
  keep : bool array;
}

let width_us = 250_000.

let index w at = int_of_float (Float.floor ((at -. w.start) /. w.width))

let kept w at =
  let i = index w at in
  i >= 0 && i < Array.length w.keep && w.keep.(i)

(* Seconds covered by the kept windows. *)
let seconds w =
  float_of_int (Array.fold_left (fun n k -> if k then n + 1 else n) 0 w.keep)
  *. w.width /. 1e6

(* The whole windows of [start, stop), or one window covering it when it is
   shorter than a window; [quiet] keeps the busiest quarter. *)
let make ~start ~stop ~quiet (writes : Lat.t) =
  let full = int_of_float ((stop -. start) /. width_us) in
  let width, n = if full = 0 then (stop -. start, 1) else (width_us, full) in
  let w = { start; width; writes = Array.make n 0; keep = Array.make n true } in
  for i = 0 to Lat.count writes - 1 do
    let j = index w writes.Lat.start.Samples.data.(i) in
    if j >= 0 && j < n then w.writes.(j) <- w.writes.(j) + 1
  done;
  if quiet then begin
    let counts = Samples.create () in
    Array.iter (fun c -> Samples.add counts (float_of_int c)) w.writes;
    let floor = Samples.percentile counts 75. in
    Array.iteri (fun j c -> w.keep.(j) <- float_of_int c >= floor) w.writes
  end;
  w
